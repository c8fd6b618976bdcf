package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"
)

// Per-window sizes; a pass is a number of windows (see bench.windows),
// each about a second of work on a 2-CPU machine. epoch-churn does a set
// count of cycles (its cost depends on market size, which a time limit
// would let drift); admit-churn, whose market stays near empty, runs to a
// one-second deadline.
const (
	churnPool       = 8192 // distinct admit-churn bodies, reused round-robin
	warmPairs       = 1000 // untimed admit-churn pairs on each daemon before its window
	preloadN        = 200  // epoch-churn providers admitted during set-up
	cyclesPerWindow = 30   // epoch-churn cycles per window, after the preload
	// maxPairRate bounds admit-churn pairs per second when sizing the span
	// ring of a traced pass; a ring that still wraps fails the run.
	maxPairRate = 25000
)

// Trace-ID salts keep the workloads' minted traces apart.
const (
	saltChurn = 0xc4a3
	saltEpoch = 0xe90c
)

// admitChurnPass drives admit-churn: two closed-loop connections, each
// admitting a provider and departing it again, no WAL. Each one-second
// window (see bench.windows) runs on a daemon of its own, after an
// untimed warm-up on it. With timedSetup every window times its set-ups
// for setup_s; with tr non-nil the sampled blocks carry traceparents and
// each window ends by scraping spans.
func (b *bench) admitChurnPass(timedSetup bool, tr *traceIDs) (*pass, error) {
	c := newClient(conns)
	defer c.close()
	kind, extra := "admit-churn", []string(nil)
	if tr != nil {
		pairs := int64(maxPairRate) / sampleEvery
		kind, extra = "admit-churn traced", []string{"-spans", strconv.FormatInt(9*(pairs+2*sampleBlock), 10)}
	}
	args := b.flags(kind, extra...)
	p := &pass{}
	// Request indices run on across windows, so every traced request of
	// the run mints its own trace ID.
	var next, sent, accepted, active int64
	var wins []*pass
	for win := 0; win < b.windows(); win++ {
		d, err := b.start(timedSetup, args, nil, drawOnce(c, b.seed, churnPool, &p.pool), nil)
		if err != nil {
			return nil, err
		}
		pool := p.pool
		var admits atomic.Int64
		pair := func(traced bool) func(w *worker, i int64) {
			return func(w *worker, i int64) {
				on := traced && sampled(i)
				admits.Add(1)
				r, ok := w.request(c, tr, uint64(2*i), on, opAdmit, http.MethodPost, d.base+"/v1/providers", pool.enc[i%churnPool], http.StatusCreated)
				if !ok {
					return
				}
				id, err := w.admitID(r, on)
				if err != nil {
					w.t.failed++
					return
				}
				w.request(c, tr, uint64(2*i+1), on, opDepart, http.MethodDelete, fmt.Sprintf("%s/v1/providers/%d", d.base, id), nil, http.StatusNoContent)
			}
		}
		var claim atomic.Int64
		claim.Store(next)
		// Warm-up: open the connections and let the daemon's and the
		// client's lazy set-up finish. Counted for errors, never timed.
		warmEnd := next + warmPairs
		for _, w := range closedLoop(conns, func() (int64, bool) {
			i := claim.Add(1) - 1
			return i, i < warmEnd
		}, pair(false)) {
			p.t.add(w.t)
		}
		claim.Store(warmEnd)
		wp := &pass{}
		if err := wp.begin(c, d); err != nil {
			return nil, err
		}
		t0 := time.Now()
		deadline := t0.Add(time.Second)
		ws := closedLoop(conns, func() (int64, bool) {
			return claim.Add(1) - 1, time.Now().Before(deadline)
		}, pair(tr != nil))
		wp.absorb(ws, time.Since(t0).Seconds())
		next = claim.Load()
		after, err := wp.end(c, d)
		if err != nil {
			return nil, err
		}
		if err := wp.finish(c, d, tr); err != nil {
			return nil, err
		}
		wins = append(wins, wp)
		data, err := c.get(d.base + "/v1/market")
		if err != nil {
			return nil, err
		}
		var mk struct {
			Active int64 `json:"active"`
		}
		if err := json.Unmarshal(data, &mk); err != nil {
			return nil, fmt.Errorf("decode market: %w", err)
		}
		active += mk.Active
		sent += admits.Load()
		accepted += int64(value(after, "mecd_admissions_total", "result", "accepted"))
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	p.merge(wins)
	p.dials = c.dials.Load()
	b.rep.check(kind+": no provider left active", active == 0, fmt.Sprintf("%d active", active))
	b.rep.check(kind+": accepted admissions equal admissions sent", accepted == sent,
		fmt.Sprintf("mecd_admissions_total{result=\"accepted\"} sum to %d, sent %d", accepted, sent))
	return p, nil
}

// crashRecover is the WAL's output check: once d has served /v1/market
// it is killed with SIGKILL, its log is copied to walCopy, and mecd is
// restarted over the same log with the same args. The recovered daemon
// must serve the pre-kill /v1/market byte for byte. It returns the
// restart's time to ready, in seconds.
func (b *bench) crashRecover(c *client, d *daemon, args []string, kind, walCopy string) (float64, error) {
	before, err := c.get(d.base + "/v1/market")
	if err != nil {
		return 0, err
	}
	d.kill()
	if err := copyDir(filepath.Join(b.dir, "wal", "default"), walCopy); err != nil {
		return 0, err
	}
	rd, took, err := launch(b.mecd, b.dir, args)
	if err != nil {
		return 0, fmt.Errorf("restart over the WAL: %w", err)
	}
	got, err := c.get(rd.base + "/v1/market")
	if err != nil {
		return 0, err
	}
	b.rep.check(kind+": recovery over the WAL serves the pre-kill /v1/market byte for byte", bytes.Equal(got, before),
		fmt.Sprintf("%d bytes before the kill, %d after recovery", len(before), len(got)))
	return took.Seconds(), rd.stop()
}

// epochCmd is one entry of epoch-churn's command log.
type epochCmd struct {
	op   string // opAdmit, opDepart, opEpochChurn, opEpochIdle
	prov int    // opAdmit: index into the run's bodies
	id   int64  // opDepart: provider ID
}

// epochPass drives epoch-churn over one connection, serially, so the run
// is deterministic. Each window (see bench.windows) runs on a daemon of
// its own and does the same work: set-up preloads preloadN providers, then
// each of cyclesPerWindow cycles admits a new provider or departs the oldest
// (alternately), runs an epoch over the changed market (churned) and runs
// one more over the unchanged market (idle). With durable the daemons log
// every command to a WAL (-wal-dir, -wal-sync always); given a walCopy,
// the last one ends with crashRecover, which leaves a copy of its log
// there. With timedSetup every window times its set-ups for setup_s. It
// returns the pass, whose final body is the first daemon's
// /v1/placements, and the command log every daemon was sent.
func (b *bench) epochPass(timedSetup bool, tr *traceIDs, durable bool, walCopy string) (*pass, []epochCmd, error) {
	c := newClient(1)
	defer c.close()
	kind, extra := "epoch-churn", []string(nil)
	if durable {
		kind, extra = kind+" durable", append(extra, "-wal-dir", "wal")
	}
	if tr != nil {
		// A traced command leaves at most 8 spans (request, queue_wait,
		// wal_append, wal_fsync, apply, epoch, epoch_solve, publish).
		kind, extra = kind+" traced", append(extra, "-spans", strconv.Itoa(8*3*cyclesPerWindow))
	}
	args := b.flags(kind, extra...)
	var fresh func() error
	if durable {
		fresh = func() error {
			_, err := b.sub("wal")
			return err
		}
	}
	p := &pass{}
	var fifo []int64
	var t tally
	preload := func(d *daemon) error {
		fifo = fifo[:0]
		for j := 0; j < preloadN; j++ {
			r, err := c.send(http.MethodPost, d.base+"/v1/providers", p.pool.enc[j], "")
			if !t.record(r.status, http.StatusCreated, err) {
				return fmt.Errorf("preload admission %d: status %d: %v", j, r.status, err)
			}
			id, err := admittedID(r.body)
			if err != nil {
				return err
			}
			fifo = append(fifo, id)
		}
		return nil
	}
	var first []epochCmd
	sameLog, samePlacements := true, true
	on := tr != nil
	var wins []*pass
	for win := 0; win < b.windows(); win++ {
		d, err := b.start(timedSetup, args, fresh, drawOnce(c, b.seed, preloadN+cyclesPerWindow/2+1, &p.pool), preload)
		if err != nil {
			return nil, nil, err
		}
		log := make([]epochCmd, 0, preloadN+3*cyclesPerWindow)
		for j := 0; j < preloadN; j++ {
			log = append(log, epochCmd{op: opAdmit, prov: j})
		}
		wp := &pass{}
		if err := wp.begin(c, d); err != nil {
			return nil, nil, err
		}
		epochURL := d.base + "/v1/admin/epoch"
		w := newWorker()
		t0 := time.Now()
		for cyc := 0; cyc < cyclesPerWindow; cyc++ {
			// Request indices run on across windows, so every traced
			// request of the run mints its own trace ID.
			idx := uint64(3 * (win*cyclesPerWindow + cyc))
			if cyc%2 == 0 {
				j := preloadN + cyc/2
				r, ok := w.request(c, tr, idx, on, opAdmit, http.MethodPost, d.base+"/v1/providers", p.pool.enc[j], http.StatusCreated)
				if ok {
					id, err := w.admitID(r, on)
					if err != nil {
						return nil, nil, err
					}
					fifo = append(fifo, id)
					log = append(log, epochCmd{op: opAdmit, prov: j})
				}
			} else {
				id := fifo[0]
				if _, ok := w.request(c, tr, idx, on, opDepart, http.MethodDelete, fmt.Sprintf("%s/v1/providers/%d", d.base, id), nil, http.StatusNoContent); ok {
					fifo = fifo[1:]
					log = append(log, epochCmd{op: opDepart, id: id})
				}
			}
			if _, ok := w.request(c, tr, idx+1, on, opEpochChurn, http.MethodPost, epochURL, nil, http.StatusOK); ok {
				log = append(log, epochCmd{op: opEpochChurn})
			}
			if _, ok := w.request(c, tr, idx+2, on, opEpochIdle, http.MethodPost, epochURL, nil, http.StatusOK); ok {
				log = append(log, epochCmd{op: opEpochIdle})
			}
		}
		wp.absorb([]*worker{w}, time.Since(t0).Seconds())
		if _, err := wp.end(c, d); err != nil {
			return nil, nil, err
		}
		if err := wp.finish(c, d, tr); err != nil {
			return nil, nil, err
		}
		wins = append(wins, wp)
		final, err := c.get(d.base + "/v1/placements")
		if err != nil {
			return nil, nil, err
		}
		if win == 0 {
			first, p.final = log, final
		} else {
			sameLog = sameLog && reflect.DeepEqual(log, first)
			samePlacements = samePlacements && bytes.Equal(final, p.final)
		}
		if walCopy != "" && win == b.windows()-1 {
			if p.recover, err = b.crashRecover(c, d, args, kind, walCopy); err != nil {
				return nil, nil, err
			}
		} else if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
	p.t.add(t)
	p.merge(wins)
	p.dials = c.dials.Load()
	b.rep.check(kind+": every daemon was sent the same commands", sameLog, "command logs differ between windows")
	b.rep.check(kind+": every daemon ends with the same /v1/placements", samePlacements, "final placements differ between windows")
	return p, first, nil
}
