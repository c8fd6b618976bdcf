// Command e2ebench is mecache's end-to-end benchmark. It drives the real
// cmd/mecd binary, built from the tree under test and run as a child
// process on 127.0.0.1, over real keep-alive sockets, and prints one
// workload's figures.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash e2ebench/run.sh --workload admit-churn --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with request
// tracing off. With --trace 1 it runs the workload untraced once more and
// then traced (sampled requests carry a W3C traceparent), and reports
// per-layer figures: client timings from net/http/httptrace, the daemon's
// own spans and /metrics, and in-process calls to the layers' exported
// functions. The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// preceded by a readable report with provenance, sample counts, checks
// and the workload's figures under the names it defines them by.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
)

// workloads maps each name to its run and the reason it exists.
var workloads = map[string]struct {
	why string
	run func(b *bench) error
}{
	"admit-churn": {
		"per-request path (HTTP/JSON, routing, instruments, queue, best response) at near-empty market; WAL and epoch idle",
		runAdmitChurn,
	},
	"epoch-churn": {
		"LCF/Appro epoch solve after one-provider churn (misses every warm tier) and on an unchanged market (hits tier 2); traced, also the WAL and kill -9 recovery",
		runEpochChurn,
	},
}

func main() { os.Exit(run()) }

// order is the sequence --workload all runs.
var order = []string{"admit-churn", "epoch-churn"}

func run() int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: admit-churn, epoch-churn, or all (each in turn, one result line each)")
	seed := fs.Uint64("seed", 1, "workload seed: daemon -seed and provider draws derive from it")
	seconds := fs.Int("seconds", 30, "run length in seconds: an end-to-end run measures one window of about a second per second")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	mecd := fs.String("mecd", "", "mecd binary built from the tree under test")
	work := fs.String("work", "", "scratch directory for daemon state")
	root := fs.String("root", ".", "repository root, hashed into the provenance when the commit is unknown")
	commit := fs.String("commit", "", "commit of the tree under test, if known")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = order
	}
	_, ok := workloads[names[0]]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *mecd == "" || *work == "" {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (admit-churn, epoch-churn or all), --seconds >= 1, --trace 0|1, -mecd and -work\n")
		return 2
	}

	// The client shares the CPUs with the daemon under test; collecting
	// its small heap less often keeps its GC out of the daemon's tail.
	debug.SetGCPercent(400)

	// Reap the daemons on every way out, signals included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	bin, err := filepath.Abs(*mecd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, n := range names {
		prov, err := newProvenance(*root, *commit, *seed, *seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: provenance:", err)
			return 1
		}
		b := &bench{mecd: bin, seed: *seed, seconds: *seconds, traced: *trace == 1, rep: newReport(n, *trace == 1, prov)}
		if err := runOne(b, *work); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", n+":", err)
			return 1
		}
	}
	return 0
}

// runOne runs b's workload in a scratch directory under work, removed
// afterwards with every daemon reaped, and prints its report and result.
func runOne(b *bench, work string) error {
	w := workloads[b.rep.Workload]
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d", b.rep.Workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer func() {
		killAll()
		os.RemoveAll(dir)
	}()
	b.dir = dir
	b.rep.Notes["why"] = w.why
	if err := w.run(b); err != nil {
		return err
	}
	return b.rep.write(os.Stdout, b.t)
}
