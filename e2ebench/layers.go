package main

import (
	"fmt"
	"strconv"

	"mecache/internal/obs"
)

// endToEndMetrics are the contract's --trace 0 figures. Every workload
// reports each of them; "op" is the workload's primary operation and
// "aux" its secondary one:
//
//	admit-churn  op = admission     aux = departure
//	epoch-churn  op = churned epoch aux = idle epoch
//
// They are chosen to hold still on a shared 2-CPU host whose neighbours
// take its CPUs for minutes at a time. Latency is gated at the 1st
// percentile. The host runs the same churned epoch in about 25 ms in some
// stretches of a second or so and about 36 ms in others, and a run's share
// of fast stretches varies, so a quartile jumps between the two speeds
// from run to run, and so does the 5th percentile in runs with few fast
// stretches; the 1st percentile reads the fast stretches of every run.
// Any change to the program's work moves every percentile, the lowest too.
// cpu_us_per_op, the daemon's CPU time per completed request, leaves out
// the time the hypervisor gives to other guests, so it follows the
// program's work more closely than a wall-clock figure, though a contended
// host still raises it through the caches and cores it shares. A daemon's
// peak RSS is bimodal as its GC happens to fall, so the run reports the
// median over its daemons. The medians, tails and throughput are still
// printed in the report under the workload's own names (admit_p50_ms,
// admit_p99_ms, ops_per_s, ...).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p1_ms", "ms"},
	{"aux_p1_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
}

// layerMetrics are the --trace 1 figures. Every workload reports each of
// them; a layer the workload leaves idle reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"client.ttfb_us_p50", "us"},
	{"client.read_decode_us_p50", "us"},
	{"client.conns_opened", "count"},
	{"client.unattributed_frac", "fraction"},
	{"server.request_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.queue_wait_us_p50", "us"},
	{"server.queue_wait_us_p99", "us"},
	{"server.apply_us_p50", "us"},
	{"server.publish_us_p50", "us"},
	{"server.batch_size_mean", "count"},
	{"server.gc_cycles_per_kop", "1/kop"},
	{"server.epoch_self_ms_p50", "ms"},
	{"wal.append_us_p50", "us"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsyncs_per_op", "1/op"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.replay_ms", "ms"},
	{"mec.state_walk_us", "us"},
	{"game.best_response_us_p50", "us"},
	{"dynamic.epoch_solve_ms_p50_churn", "ms"},
	{"dynamic.epoch_solve_ms_p50_idle", "ms"},
	{"dynamic.lcf_rounds_mean", "count"},
	{"core.appro_ms_p50", "ms"},
	{"core.lcf_minus_appro_ms_p50", "ms"},
	{"core.epoch_cold_ms_p50", "ms"},
	{"core.epoch_warm_ms_p50", "ms"},
	{"core.warm_hit_frac_churn", "fraction"},
	{"core.warm_hit_frac_idle", "fraction"},
	{"core.transport_hit_frac", "fraction"},
	{"core.transport_hit_frac_churn", "fraction"},
	{"core.transport_hit_frac_idle", "fraction"},
	{"core.transport_patched", "count"},
	{"core.lcf_cache_hits", "count"},
	{"obs.tracing_overhead_frac", "fraction"},
}

func unitOf(table []struct{ name, unit string }, name string) string {
	for _, m := range table {
		if m.name == name {
			return m.unit
		}
	}
	panic("unknown metric " + name)
}

// e2e sets an end-to-end metric.
func (b *bench) e2e(name string, v float64) { b.rep.set(name, v, unitOf(endToEndMetrics, name)) }

// layer sets a per-layer metric.
func (b *bench) layer(name string, v float64) { b.rep.set(name, v, unitOf(layerMetrics, name)) }

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// opCount is how many mutating requests a pass completed.
func (p *pass) opCount() int {
	n := 0
	for _, xs := range p.lat {
		n += len(xs)
	}
	return n
}

// endToEnd sets the contract metrics from an untraced pass, op being the
// workload's primary operation and aux its secondary one. It also reports
// the pass's other figures under the names the workload defines
// (admit_p50_ms, epoch_churn_p95_ms, ops_per_s, ...).
func (b *bench) endToEnd(p *pass, op, opName, aux string) error {
	d := newDist(scaled(p.lat[op], 1e3))
	pc, tail, ok := d.tail()
	if !ok {
		return fmt.Errorf("%d %s samples support no tail percentile", d.n(), op)
	}
	a := newDist(scaled(p.lat[aux], 1e3))
	if a.n() == 0 {
		return fmt.Errorf("no %s samples", aux)
	}
	ops := p.opCount()
	b.e2e("setup_s", median(b.setups))
	b.e2e("op_p1_ms", d.at(1))
	b.e2e("aux_p1_ms", a.at(1))
	b.e2e("cpu_us_per_op", p.cpu/float64(ops)*1e6)
	b.e2e("rss_peak_mb", median(p.rss))
	b.rep.Notes["op"] = op
	b.rep.Notes["aux"] = aux
	b.rep.name(opName+"_p50_ms", d.p50(), "ms")
	b.rep.name(opName+"_p90_ms", d.at(90), "ms")
	b.rep.name(opName+"_p"+strconv.FormatFloat(pc, 'f', -1, 64)+"_ms", tail, "ms")
	b.rep.name(aux+"_p50_ms", a.p50(), "ms")
	b.rep.name("ops_per_s", float64(ops)/p.elapsed, "1/s")
	b.rep.name("host_steal_frac", newDist(p.steal).mean(), "fraction")
	for o, xs := range p.lat {
		b.rep.Samples[o] = len(xs)
	}
	b.rep.Samples["windows"] = len(p.steal)
	b.rep.Samples["setups"] = len(b.setups)
	b.rep.name("setup_s", median(b.setups), "s")
	return nil
}

// layers sets the per-layer metrics both runs can give: base is the
// untraced pass, tp the traced one, op the workload's primary operation.
// Workload-specific figures (WAL replay, state walk, in-process solves)
// are set by the workload; every other metric starts at 0.
func (b *bench) layers(base, tp *pass, op string) {
	for _, m := range layerMetrics {
		b.layer(m.name, 0)
	}
	trees := groupTraces(tp.spans)
	var ttfb, readDecode, unattributed, request, self, apply, epochSelf, solveChurn, solveIdle, tracedOp []float64
	missing := 0
	for _, pr := range tp.probes {
		t := trees[pr.trace]
		if t == nil || !t.hasRoot {
			missing++
			continue
		}
		if solve, ok := t.spanIn(obs.StageApply, obs.StageEpochSolve); ok {
			switch pr.op {
			case opEpochChurn:
				solveChurn = append(solveChurn, solve.Duration)
				if ep, ok := t.spanIn(obs.StageApply, obs.StageEpoch); ok {
					epochSelf = append(epochSelf, ep.Duration-solve.Duration)
				}
			case opEpochIdle:
				solveIdle = append(solveIdle, solve.Duration)
			}
		}
		if pr.op != op {
			continue
		}
		tracedOp = append(tracedOp, pr.r.secs())
		ttfb = append(ttfb, pr.r.firstByte.Sub(pr.r.sent).Seconds())
		readDecode = append(readDecode, pr.r.read.Sub(pr.r.firstByte).Seconds()+pr.decode)
		unattributed = append(unattributed, 1-t.root.Duration/pr.r.secs())
		request = append(request, t.root.Duration)
		self = append(self, selfTime(t.root, t.children[t.root.ID]))
		if a, ok := t.child(t.root.ID, obs.StageApply); ok {
			apply = append(apply, a.Duration)
		}
	}
	b.rep.check("every traced request left a request span", missing == 0,
		fmt.Sprintf("%d of %d traced requests have no request span", missing, len(tp.probes)))
	byStage := map[string][]float64{}
	var rounds []float64
	for _, sp := range tp.spans {
		byStage[sp.Stage] = append(byStage[sp.Stage], sp.Duration)
		if sp.Stage == obs.StageEpochSolve {
			if r, ok := attrInt(sp, "rounds"); ok {
				rounds = append(rounds, float64(r))
			}
		}
	}
	us := func(xs []float64) dist { return newDist(scaled(xs, 1e6)) }
	msd := func(xs []float64) dist { return newDist(scaled(xs, 1e3)) }
	b.layer("client.ttfb_us_p50", us(ttfb).p50())
	b.layer("client.read_decode_us_p50", us(readDecode).p50())
	b.layer("client.conns_opened", float64(tp.dials)/float64(len(tp.rss)))
	b.layer("client.unattributed_frac", newDist(unattributed).p50())
	b.layer("server.request_us_p50", us(request).p50())
	b.layer("server.self_us_p50", us(self).p50())
	qw := us(byStage[obs.StageQueueWait])
	b.layer("server.queue_wait_us_p50", qw.p50())
	if pc, v, ok := qw.tail(); ok {
		b.layer("server.queue_wait_us_p99", v)
		b.rep.Notes["server.queue_wait_us_p99"] = "p" + strconv.FormatFloat(pc, 'f', -1, 64)
	}
	b.layer("server.apply_us_p50", us(apply).p50())
	b.layer("server.publish_us_p50", us(byStage[obs.StagePublish]).p50())
	b.layer("server.batch_size_mean", batchSizeMean(tp.spans))
	b.layer("server.epoch_self_ms_p50", msd(epochSelf).p50())
	b.layer("wal.append_us_p50", us(byStage[obs.StageWALAppend]).p50())
	b.layer("wal.fsync_us_p50", us(byStage[obs.StageWALFsync]).p50())
	b.layer("game.best_response_us_p50", us(byStage[obs.StageBestResponse]).p50())
	b.layer("dynamic.epoch_solve_ms_p50_churn", msd(solveChurn).p50())
	b.layer("dynamic.epoch_solve_ms_p50_idle", msd(solveIdle).p50())
	b.layer("dynamic.lcf_rounds_mean", newDist(rounds).mean())
	// Counter deltas come from the untraced pass: span recording
	// allocates, so the traced pass would inflate GC.
	if ops := base.opCount(); ops > 0 {
		b.layer("server.gc_cycles_per_kop", base.gc/(float64(ops)/1000))
		b.layer("wal.fsyncs_per_op", base.fsyncs/float64(ops))
	}
	// Tracing overhead compares the traced requests with the untraced ones
	// of the same pass: same daemon, same seconds of the host. Where every
	// request is traced (epoch-churn), the untraced pass is the baseline.
	untraced := tp.lat[op]
	if len(untraced) == 0 {
		untraced = base.lat[op]
	}
	if len(untraced) > 0 && len(tracedOp) > 0 {
		b.layer("obs.tracing_overhead_frac", newDist(tracedOp).p50()/newDist(untraced).p50()-1)
	}
	b.rep.Samples["overhead_baseline_"+op] = len(untraced)
	b.rep.Samples["traced_"+op] = len(tracedOp)
	b.rep.Samples["traced_spans"] = len(tp.spans)
	b.rep.Samples["untraced_"+op] = len(base.lat[op])
}

// spanIn returns the first span of the given stage that hangs off the
// root's child of stage parentStage (epoch_solve and epoch hang off apply).
func (t *traceTree) spanIn(parentStage, stage string) (obs.Span, bool) {
	p, ok := t.child(t.root.ID, parentStage)
	if !ok {
		return obs.Span{}, false
	}
	return t.child(p.ID, stage)
}
