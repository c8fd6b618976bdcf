package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mecache/internal/mec"
	"mecache/internal/metrics"
	"mecache/internal/obs"
	"mecache/internal/rng"
	"mecache/internal/workload"
)

// Shape shared by every workload: mecd -size 500 (50 cloudlets, 5 DCs)
// with production defaults otherwise (manual epochs, -trace 64, -spans
// 256), driven over at most two keep-alive connections because the
// reference machine has two CPUs and the client shares them.
const (
	netSize = 500
	conns   = 2
	// An end-to-end run times this many set-ups on each window, so the
	// set-ups spread over the run as its windows do; setup_s is their
	// median.
	setupsPerWindow = 2
	// Traced passes stamp a traceparent on whole blocks of consecutive
	// requests, one block in sampleEvery. Both connections then sit in the
	// same block, so a loop batch is traced whole and the batch size can
	// be read off the shared publish spans.
	sampleBlock = 64
	sampleEvery = 8
)

// Operation names, used as latency keys and trace labels.
const (
	opAdmit      = "admit"
	opDepart     = "depart"
	opEpochChurn = "epoch_churn"
	opEpochIdle  = "epoch_idle"
)

// bench is one benchmark invocation.
type bench struct {
	mecd    string // daemon binary built from the tree under test
	dir     string // scratch directory for daemon state and logs
	seed    uint64
	seconds int
	traced  bool
	rep     *report
	t       tally
	setups  []float64 // seconds per timed set-up, for setup_s
}

// windows is how many windows a pass measures, back to back, each about a
// second of work on a daemon launched for it: one per --seconds for an
// end-to-end run, whose samples are all pooled. The speed of a shared
// 2-CPU host changes from one second to the next (the same churned epoch
// takes about 25 ms in some stretches and about 36 ms in others, on every
// daemon alike), so a run spread over many windows samples many
// stretches, and its latencies are gated at a low percentile, which reads
// the fast ones. Traced runs measure layers, not run-to-run stability, and
// run two passes, so each measures a third as many.
func (b *bench) windows() int {
	if b.traced {
		return max(1, b.seconds/3)
	}
	return b.seconds
}

// flags returns mecd's flags for one kind of launch and records them.
func (b *bench) flags(kind string, extra ...string) []string {
	args := append([]string{"-size", strconv.Itoa(netSize), "-seed", strconv.FormatUint(b.seed, 10)}, extra...)
	b.rep.Provenance.MecdFlags[kind] = append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-port-file", "mecd.port")
	return args
}

// sub returns a fresh directory under the run's scratch directory.
func (b *bench) sub(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// start brings up a window's daemon and returns it running. With timed it
// launches the daemon setupsPerWindow times and keeps the last: each
// set-up is timed from process start to the port file (mecd writes it
// once /healthz answers) plus prep, the workload's preload, and added to
// b.setups, whose median is setup_s. fresh runs before each launch; draw
// runs between launch and prep and is not timed.
func (b *bench) start(timed bool, args []string, fresh func() error, draw, prep func(d *daemon) error) (*daemon, error) {
	launches := 1
	if timed {
		launches = setupsPerWindow
	}
	var d *daemon
	for k := 0; k < launches; k++ {
		if d != nil {
			// SIGKILL, not SIGTERM: mecd installs its signal handler only
			// after it writes the port file, so a SIGTERM this soon after
			// readiness can meet the default action and fail the exit check.
			d.kill()
		}
		if fresh != nil {
			if err := fresh(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if d, took, err = launch(b.mecd, b.dir, args); err != nil {
			return nil, err
		}
		if err := draw(d); err != nil {
			return nil, err
		}
		if prep != nil {
			t0 := time.Now()
			if err := prep(d); err != nil {
				return nil, err
			}
			took += time.Since(t0)
		}
		if timed {
			b.setups = append(b.setups, took.Seconds())
		}
	}
	return d, nil
}

// bodies are the run's providers, drawn from the workload seed exactly as
// mecload draws them and JSON-encoded before any timing starts.
type bodies struct {
	provs []mec.Provider
	enc   [][]byte
}

// drawOnce returns a start hook that, on the first launch, draws providers
// 0..n-1 into out for the network the daemon reports.
func drawOnce(c *client, seed uint64, n int, out *bodies) func(d *daemon) error {
	return func(d *daemon) error {
		if out.enc != nil {
			return nil
		}
		data, err := c.get(d.base + "/v1/market")
		if err != nil {
			return err
		}
		var facts struct {
			NumDCs   int `json:"numDCs"`
			NumNodes int `json:"numNodes"`
		}
		if err := json.Unmarshal(data, &facts); err != nil {
			return fmt.Errorf("decode market facts: %w", err)
		}
		wl := workload.Default(seed)
		provs, enc := make([]mec.Provider, n), make([][]byte, n)
		for i := range provs {
			provs[i] = wl.DrawProvider(rng.Substream(seed, uint64(i)), facts.NumDCs, facts.NumNodes)
			if enc[i], err = json.Marshal(provs[i]); err != nil {
				return err
			}
		}
		*out = bodies{provs: provs, enc: enc}
		return nil
	}
}

// probeRec is the client side of one traced request.
type probeRec struct {
	trace  string
	op     string
	r      reply
	decode float64 // seconds spent decoding the reply
}

// worker is one connection's share of a pass; workers share nothing.
type worker struct {
	lat    map[string][]float64
	probes []probeRec
	t      tally
}

func newWorker() *worker { return &worker{lat: map[string][]float64{}} }

// pass is one workload's timed phase, or one window of it: its figures,
// its request tally, and the workload's end state.
type pass struct {
	lat     map[string][]float64 // seconds, per operation; untraced requests only
	probes  []probeRec
	t       tally
	elapsed float64
	dials   int64      // connections the client opened, all windows
	spans   []obs.Span // traced passes: this run's spans only
	rss     []float64  // each daemon's VmHWM, MB
	// From begin to end of each window: daemon CPU seconds, GC cycles and
	// WAL fsyncs, and the share of the machine's CPU time stolen.
	cpu, gc, fsyncs float64
	steal           []float64
	before          []metrics.Family // the window's /metrics at begin
	ticks0          [2]uint64        // the machine's stolen and total CPU ticks at begin
	final           []byte           // the workload's end-state body
	recover         float64          // durable passes: restart over the WAL to ready, seconds
	pool            bodies           // the providers the pass drew
}

// merge adds every window's figures and request tally to p.
func (p *pass) merge(wins []*pass) {
	if p.lat == nil {
		p.lat = map[string][]float64{}
	}
	for _, w := range wins {
		p.t.add(w.t)
		for op, xs := range w.lat {
			p.lat[op] = append(p.lat[op], xs...)
		}
		p.probes = append(p.probes, w.probes...)
		p.elapsed += w.elapsed
		p.spans = append(p.spans, w.spans...)
		p.rss = append(p.rss, w.rss...)
		p.cpu += w.cpu
		p.gc += w.gc
		p.fsyncs += w.fsyncs
		p.steal = append(p.steal, w.steal...)
	}
}

// absorb adds one window's workers, which ran for secs, to the pass.
func (p *pass) absorb(ws []*worker, secs float64) {
	if p.lat == nil {
		p.lat = map[string][]float64{}
	}
	for _, w := range ws {
		for op, xs := range w.lat {
			p.lat[op] = append(p.lat[op], xs...)
		}
		p.probes = append(p.probes, w.probes...)
		p.t.add(w.t)
	}
	p.elapsed += secs
}

// closedLoop runs one worker per connection. Each claims the next request
// index and sends its next request only after the previous reply, so a
// slower daemon receives less load.
func closedLoop(n int, claim func() (int64, bool), step func(w *worker, i int64)) []*worker {
	ws := make([]*worker, n)
	var wg sync.WaitGroup
	for k := range ws {
		ws[k] = newWorker()
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				step(w, i)
			}
		}(ws[k])
	}
	wg.Wait()
	return ws
}

// sampled reports whether request block i is traced.
func sampled(i int64) bool { return (i/sampleBlock)%sampleEvery == 0 }

// request sends one mutating request, counts it, and on the wanted status
// records its latency: a traced request as a client-side probe, an
// untraced one in the worker's latencies.
func (w *worker) request(c *client, tr *traceIDs, idx uint64, traced bool, op, method, url string, body []byte, want int) (reply, bool) {
	var trace, header string
	if traced {
		trace, header = tr.mint(idx)
	}
	r, err := c.send(method, url, body, header)
	if !w.t.record(r.status, want, err) {
		return r, false
	}
	if traced {
		w.probes = append(w.probes, probeRec{trace: trace, op: op, r: r})
	} else {
		w.lat[op] = append(w.lat[op], r.secs())
	}
	return r, true
}

// admitID decodes an admission reply; for a traced request it also times
// the decode as client work.
func (w *worker) admitID(r reply, traced bool) (int64, error) {
	t0 := time.Now()
	id, err := admittedID(r.body)
	if traced {
		w.probes[len(w.probes)-1].decode = time.Since(t0).Seconds()
	}
	return id, err
}

// scrape parses the daemon's /metrics.
func scrape(c *client, base string) ([]metrics.Family, error) {
	data, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	return metrics.ParseText(bytes.NewReader(data))
}

// value reads one sample (label subset match), 0 when absent.
func value(fams []metrics.Family, name string, kv ...string) float64 {
	s, _ := metrics.FindSample(fams, name, kv...)
	return s.Value
}

// begin opens a window's timed phase on d: it scrapes /metrics and notes
// the daemon's and the machine's CPU time.
func (p *pass) begin(c *client, d *daemon) error {
	cpu, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	p.cpu -= cpu
	if p.before, err = scrape(c, d.base); err != nil {
		return err
	}
	p.ticks0, err = machineTicks()
	return err
}

// end closes the window begin opened, records the daemon's CPU time, GC
// cycles and WAL fsyncs over it and the share of the machine's CPU time
// stolen, and returns the /metrics scraped at the close.
func (p *pass) end(c *client, d *daemon) ([]metrics.Family, error) {
	ticks, err := machineTicks()
	if err != nil {
		return nil, err
	}
	p.steal = append(p.steal, frac(ticks[0]-p.ticks0[0], ticks[1]-p.ticks0[1]))
	cpu, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p.cpu += cpu
	after, err := scrape(c, d.base)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return value(after, name) - value(p.before, name) }
	p.gc += delta("go_gc_cycles_total")
	p.fsyncs += delta("mecd_wal_fsync_seconds_count")
	return after, nil
}

// finish reads a window's daemon once its work is done: peak RSS and, for
// a traced pass, this run's spans.
func (p *pass) finish(c *client, d *daemon, tr *traceIDs) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	p.rss = append(p.rss, rss)
	if tr == nil {
		return nil
	}
	data, err := c.get(d.base + "/v1/debug/spans?n=0")
	if err != nil {
		return err
	}
	spans, err := decodeSpans(data)
	if err != nil {
		return err
	}
	p.spans = append(p.spans, tr.keep(spans)...)
	return nil
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src (one level) into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
