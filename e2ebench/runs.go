package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"mecache/internal/core"
	"mecache/internal/dynamic"
	"mecache/internal/obs"
	"mecache/internal/wal"
)

func runAdmitChurn(b *bench) error {
	if !b.traced {
		p, err := b.admitChurnPass(true, nil)
		if err != nil {
			return err
		}
		b.t.add(p.t)
		return b.endToEnd(p, opAdmit, "admit", opDepart)
	}
	base, err := b.admitChurnPass(false, nil)
	if err != nil {
		return err
	}
	tp, err := b.admitChurnPass(false, newTraceIDs(b.seed, saltChurn))
	if err != nil {
		return err
	}
	b.t.add(base.t)
	b.t.add(tp.t)
	b.layers(base, tp, opAdmit)
	// Two connections each hold at most one provider between its admit
	// and its depart, so the publish walk runs over two providers.
	x, err := newMirror(b.seed, netSize)
	if err != nil {
		return err
	}
	for _, p := range base.pool.provs[:conns] {
		if _, err := x.admit(p); err != nil {
			return err
		}
	}
	b.layer("mec.state_walk_us", x.stateWalk()*1e6)
	return nil
}

// replayWAL times wal.Open plus Log.Replay over fresh copies of the log
// (replay may truncate a torn tail, so each timing gets its own copy) and
// returns the median with the number of records replayed.
func replayWAL(b *bench, logCopy string) (float64, int, error) {
	var secs []float64
	records := 0
	for k := 0; k < 3; k++ {
		dir, err := b.sub("wal-replay")
		if err != nil {
			return 0, 0, err
		}
		if err := copyDir(logCopy, dir); err != nil {
			return 0, 0, err
		}
		records = 0
		t0 := time.Now()
		l, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
		if err != nil {
			return 0, 0, err
		}
		_, err = l.Replay(func([]byte) error {
			records++
			return nil
		})
		secs = append(secs, time.Since(t0).Seconds())
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return median(secs), records, os.RemoveAll(filepath.Join(b.dir, "wal-replay"))
}

// runEpochChurn runs epoch-churn. The end-to-end run keeps the daemon's
// production defaults, with no WAL. The traced run's two passes log every
// command to a WAL, and the untraced one ends in a kill -9 and a recovery:
// the wal.* layer figures and recover_s come from them.
func runEpochChurn(b *bench) error {
	if !b.traced {
		base, log, err := b.epochPass(true, nil, false, "")
		if err != nil {
			return err
		}
		b.t.add(base.t)
		rp, err := replay(b.seed, base.pool, log, false)
		if err != nil {
			return err
		}
		b.rep.check("final /v1/placements equals the in-process cold replay", bytes.Equal(base.final, rp.placements),
			fmt.Sprintf("daemon %d bytes, replay %d bytes", len(base.final), len(rp.placements)))
		b.rep.name("admit_p50_ms", newDist(scaled(base.lat[opAdmit], 1e3)).p50(), "ms")
		b.rep.name("depart_p50_ms", newDist(scaled(base.lat[opDepart], 1e3)).p50(), "ms")
		return b.endToEnd(base, opEpochChurn, "epoch_churn", opEpochIdle)
	}
	logCopy := filepath.Join(b.dir, "wal-copy")
	base, log, err := b.epochPass(false, nil, true, logCopy)
	if err != nil {
		return err
	}
	tp, tlog, err := b.epochPass(false, newTraceIDs(b.seed, saltEpoch), true, "")
	if err != nil {
		return err
	}
	b.t.add(base.t)
	b.t.add(tp.t)
	b.layers(base, tp, opEpochChurn)
	size, err := dirBytes(logCopy)
	if err != nil {
		return err
	}
	secs, records, err := replayWAL(b, logCopy)
	if err != nil {
		return err
	}
	b.rep.check("WAL holds one record per command", records == len(log),
		fmt.Sprintf("%d records, %d commands", records, len(log)))
	b.layer("wal.bytes_per_op", float64(size)/float64(records))
	b.layer("wal.replay_ms", secs*1e3)
	b.rep.name("recover_s", base.recover, "s")
	b.rep.Samples["wal_records"] = records
	rp, err := replay(b.seed, base.pool, log, true)
	if err != nil {
		return err
	}
	b.rep.check("untraced and traced runs issue the same commands", reflect.DeepEqual(log, tlog), "command logs differ")
	b.rep.check("final /v1/placements: untraced run equals traced run", bytes.Equal(base.final, tp.final),
		fmt.Sprintf("untraced %d bytes, traced %d bytes", len(base.final), len(tp.final)))
	b.rep.check("final /v1/placements: untraced run equals in-process cold replay", bytes.Equal(base.final, rp.placements),
		fmt.Sprintf("daemon %d bytes, replay %d bytes", len(base.final), len(rp.placements)))
	b.rep.check("warm and cold in-process solves place identically", rp.mismatch == "", rp.mismatch)
	// Every daemon ran the replayed commands, so each repeats its outcomes.
	var wantWarm []bool
	for range tp.rss {
		wantWarm = append(wantWarm, rp.warmSeq...)
	}
	daemonWarm := warmFlags(tp)
	b.rep.check("in-process warm-tier outcomes equal the daemons' epoch_solve spans", reflect.DeepEqual(daemonWarm, wantWarm),
		fmt.Sprintf("daemons %v, in-process %v per daemon", count(daemonWarm), count(rp.warmSeq)))
	ms := func(xs []float64) float64 { return newDist(scaled(xs, 1e3)).p50() }
	b.layer("core.appro_ms_p50", ms(rp.appro))
	b.layer("core.lcf_minus_appro_ms_p50", ms(rp.lcfMinusAppro))
	b.layer("core.epoch_cold_ms_p50", ms(rp.cold))
	b.layer("core.epoch_warm_ms_p50", ms(rp.warm))
	b.layer("core.warm_hit_frac_churn", frac(rp.warmHits[opEpochChurn], rp.epochs[opEpochChurn]))
	b.layer("core.warm_hit_frac_idle", frac(rp.warmHits[opEpochIdle], rp.epochs[opEpochIdle]))
	c, i := rp.transport[opEpochChurn], rp.transport[opEpochIdle]
	b.layer("core.transport_hit_frac", frac(c[0]+i[0], c[0]+c[1]+i[0]+i[1]))
	b.layer("core.transport_hit_frac_churn", frac(c[0], c[0]+c[1]))
	b.layer("core.transport_hit_frac_idle", frac(i[0], i[0]+i[1]))
	b.layer("core.transport_patched", float64(rp.patched))
	b.layer("core.lcf_cache_hits", float64(rp.lcfHits))
	b.layer("mec.state_walk_us", rp.walk*1e6)
	b.rep.Samples["replayed_epochs_churn"] = rp.epochs[opEpochChurn]
	b.rep.Samples["replayed_epochs_idle"] = rp.epochs[opEpochIdle]
	return nil
}

func frac[T int | uint64](a, n T) float64 {
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}

func count(flags []bool) string {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return fmt.Sprintf("%d/%d warm", n, len(flags))
}

// warmFlags reads the warm_start attribute of the traced pass's epoch
// solves, in the order the epochs ran.
func warmFlags(tp *pass) []bool {
	trees := groupTraces(tp.spans)
	var out []bool
	for _, pr := range tp.probes {
		if pr.op != opEpochChurn && pr.op != opEpochIdle {
			continue
		}
		t := trees[pr.trace]
		if t == nil || !t.hasRoot {
			continue
		}
		if sp, ok := t.spanIn(obs.StageApply, obs.StageEpochSolve); ok {
			out = append(out, attrString(sp, "warm_start") == "hit")
		}
	}
	return out
}

// epochReplay is what the in-process replay of epoch-churn's command log
// measured.
type epochReplay struct {
	placements []byte
	// Per churned epoch, seconds: a cold core.Appro call, a cold and a
	// warm dynamic.Reequilibrate, and cold minus Appro.
	appro, cold, warm, lcfMinusAppro []float64
	epochs                           map[string]int       // epochs solved, per epoch kind
	warmHits                         map[string]int       // warm solves that reused cached work
	transport                        map[string][2]uint64 // transport-tier hits and misses
	warmSeq                          []bool               // warm-start outcome of every epoch, in order
	patched                          uint64
	lcfHits                          uint64
	mismatch                         string
	walk                             float64 // state walk at the final market, seconds
}

// replay replays epoch-churn's command log in-process with cold solves,
// the reference the daemon's placements must equal. A timed replay also
// times a cold core.Appro on every churned epoch and runs a warm solve
// (carrying one EpochSolveState, as the daemon's loop does) next to each
// cold one.
func replay(seed uint64, pool bodies, log []epochCmd, timed bool) (*epochReplay, error) {
	x, err := newMirror(seed, netSize)
	if err != nil {
		return nil, err
	}
	var state dynamic.EpochSolveState
	rp := &epochReplay{epochs: map[string]int{}, warmHits: map[string]int{}, transport: map[string][2]uint64{}}
	for _, cmd := range log {
		switch cmd.op {
		case opAdmit:
			if _, err := x.admit(pool.provs[cmd.prov]); err != nil {
				return nil, err
			}
			continue
		case opDepart:
			if err := x.depart(cmd.id); err != nil {
				return nil, err
			}
			continue
		}
		x.epochs++
		if x.m == nil {
			continue
		}
		var approSecs float64
		if timed && cmd.op == opEpochChurn {
			t0 := time.Now()
			if _, err := core.Appro(x.m, core.ApproOptions{Solver: core.SolverTransport, Trace: obs.NewRecorder(0)}); err != nil {
				return nil, err
			}
			approSecs = time.Since(t0).Seconds()
		}
		cold, coldDur, err := x.solve(nil)
		if err != nil {
			return nil, err
		}
		if timed {
			h0, m0, _ := state.TransportStats()
			warm, warmDur, err := x.solve(&state)
			if err != nil {
				return nil, err
			}
			h1, m1, _ := state.TransportStats()
			if rp.mismatch == "" && !reflect.DeepEqual(cold, warm) {
				rp.mismatch = fmt.Sprintf("epoch %d: warm placement differs from cold", x.epochs)
			}
			rp.epochs[cmd.op]++
			if state.LastWarm {
				rp.warmHits[cmd.op]++
			}
			rp.warmSeq = append(rp.warmSeq, state.LastWarm)
			t := rp.transport[cmd.op]
			rp.transport[cmd.op] = [2]uint64{t[0] + h1 - h0, t[1] + m1 - m0}
			if cmd.op == opEpochChurn {
				rp.appro = append(rp.appro, approSecs)
				rp.cold = append(rp.cold, coldDur.Seconds())
				rp.warm = append(rp.warm, warmDur.Seconds())
				rp.lcfMinusAppro = append(rp.lcfMinusAppro, coldDur.Seconds()-approSecs)
			}
		}
		x.apply(cold)
	}
	_, _, rp.patched = state.TransportStats()
	rp.lcfHits = state.LCFHits
	rp.walk = x.stateWalk()
	rp.placements, err = x.placements()
	return rp, err
}
