package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mecache/internal/rng"
	"mecache/internal/workload"
)

// TestMain doubles the test binary as the daemon itself: when re-executed
// with MECD_CRASH_HELPER=1 it runs main's run() with the given flags. That
// lets the crash tests SIGKILL a real mecd process — same code, same WAL,
// same HTTP stack — without shelling out to go build.
func TestMain(m *testing.M) {
	if os.Getenv("MECD_CRASH_HELPER") == "1" {
		if err := run(io.Discard, os.Args[1:], nil); err != nil {
			fmt.Fprintln(os.Stderr, "mecd helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemonProc is a subprocess daemon the test can kill abruptly or stop
// gracefully.
type daemonProc struct {
	cmd    *exec.Cmd
	url    string
	waitc  chan error
	stderr *bytes.Buffer
}

// spawnDaemon re-execs the test binary as mecd on a free port and waits
// until it serves.
func spawnDaemon(t *testing.T, extra ...string) *daemonProc {
	t.Helper()
	portFile := filepath.Join(t.TempDir(), "port")
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-port-file", portFile,
		"-size", "50",
	}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MECD_CRASH_HELPER=1")
	stderr := new(bytes.Buffer)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemonProc{cmd: cmd, waitc: make(chan error, 1), stderr: stderr}
	go func() { d.waitc <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.waitc
	})

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(portFile); err == nil && len(data) > 0 {
			d.url = "http://" + string(data)
			return d
		}
		select {
		case err := <-d.waitc:
			d.waitc <- err
			t.Fatalf("daemon exited before serving: %v\n%s", err, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("daemon never wrote its port file\n%s", stderr.String())
	return nil
}

// terminate stops a subprocess daemon gracefully (SIGTERM, bounded wait).
func (d *daemonProc) terminate(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.waitc:
		d.waitc <- err
		if err != nil {
			t.Fatalf("daemon shutdown: %v\n%s", err, d.stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon ignored SIGTERM for 15s")
	}
}

// TestDaemonSIGTERMAtReadiness signals the daemon the instant its
// -port-file appears, as a supervisor may: the daemon must already be
// catching the signal and shut down gracefully (exit 0), not die by the
// default SIGTERM action.
func TestDaemonSIGTERMAtReadiness(t *testing.T) {
	for i := 0; i < 5; i++ {
		portFile := filepath.Join(t.TempDir(), "port")
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-port-file", portFile, "-size", "50")
		cmd.Env = append(os.Environ(), "MECD_CRASH_HELPER=1")
		stderr := new(bytes.Buffer)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitc := make(chan error, 1)
		go func() { waitc <- cmd.Wait() }()
		deadline := time.Now().Add(15 * time.Second)
		for {
			if _, err := os.Stat(portFile); err == nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				<-waitc
				t.Fatalf("daemon never wrote its port file\n%s", stderr.String())
			}
			time.Sleep(100 * time.Microsecond)
		}
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-waitc:
			if err != nil {
				t.Fatalf("run %d: SIGTERM at readiness: %v\n%s", i, err, stderr.String())
			}
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-waitc
			t.Fatalf("run %d: daemon ignored SIGTERM for 15s", i)
		}
	}
}

// marketBody fetches the raw /v1/market document: the byte-level state the
// differential comparison runs on.
func marketBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/market")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("market: %d: %s", resp.StatusCode, data)
	}
	return data
}

// TestDaemonCrashRecoveryDifferential is the end-to-end chaos criterion: a
// real mecd process is SIGKILLed mid-admission-burst, restarted over the
// same WAL directory, and its recovered market must match — byte for byte —
// a reference daemon that was driven with the same admission prefix and
// never crashed.
func TestDaemonCrashRecoveryDifferential(t *testing.T) {
	walDir := t.TempDir()
	const seed = "42"

	victim := spawnDaemon(t, "-seed", seed, "-wal-dir", walDir)
	var facts struct {
		NumDCs   int `json:"numDCs"`
		NumNodes int `json:"numNodes"`
	}
	if err := json.Unmarshal(marketBody(t, victim.url), &facts); err != nil {
		t.Fatal(err)
	}

	// A serial burst of reproducible admissions; the killer fires as soon as
	// 15 are acknowledged, so the SIGKILL lands while the burst is live.
	wl := workload.Default(9)
	var acked atomic.Int64
	go func() {
		for acked.Load() < 15 {
			time.Sleep(time.Millisecond)
		}
		victim.cmd.Process.Kill()
	}()
	client := &http.Client{Timeout: 5 * time.Second}
	attempts := 0
	for i := 0; i < 500; i++ {
		p := wl.DrawProvider(rng.Substream(9, uint64(i)), facts.NumDCs, facts.NumNodes)
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		attempts++
		resp, err := client.Post(victim.url+"/v1/providers", "application/json", bytes.NewReader(body))
		if err != nil {
			break // the kill landed mid-request
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admission %d: status %d", i, resp.StatusCode)
		}
		acked.Add(1)
	}
	<-victim.waitc // reap the corpse; error is the kill, not a failure
	victim.waitc <- nil
	if acked.Load() < 15 {
		t.Fatalf("burst never reached the kill threshold: %d acked", acked.Load())
	}

	// Restart over the same WAL. Every acknowledged admission was fsynced
	// before its 201 (default -wal-sync always), so the recovered count is
	// at least acked; the one possibly-in-flight request at kill time may
	// add to it.
	recovered := spawnDaemon(t, "-seed", seed, "-wal-dir", walDir)
	recView := marketBody(t, recovered.url)
	var rec struct {
		Accepted uint64 `json:"accepted"`
	}
	if err := json.Unmarshal(recView, &rec); err != nil {
		t.Fatal(err)
	}
	n := int(rec.Accepted)
	if n < int(acked.Load()) || n > attempts {
		t.Fatalf("recovered %d admissions, acknowledged %d of %d attempts", n, acked.Load(), attempts)
	}

	// The recovery must have come from WAL replay, and say so in /metrics.
	resp, err := http.Get(recovered.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	replayed := -1
	for _, line := range strings.Split(string(metrics), "\n") {
		if rest, ok := strings.CutPrefix(line, `mecd_wal_recovered_records{tenant="default"} `); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparseable gauge %q: %v", line, err)
			}
			replayed = int(f)
		}
	}
	if replayed != n {
		t.Fatalf("mecd_wal_recovered_records = %d, want %d", replayed, n)
	}

	// Reference: a never-crashed daemon fed the same admission prefix.
	ref := spawnDaemon(t, "-seed", seed)
	for i := 0; i < n; i++ {
		p := wl.DrawProvider(rng.Substream(9, uint64(i)), facts.NumDCs, facts.NumNodes)
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ref.url+"/v1/providers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("reference admission %d: status %d", i, resp.StatusCode)
		}
	}
	refView := marketBody(t, ref.url)
	if !bytes.Equal(recView, refView) {
		t.Fatalf("recovered market diverged from never-crashed reference:\nrecovered: %s\nreference: %s", recView, refView)
	}

	recovered.terminate(t)
	ref.terminate(t)
}

// TestDaemonMultiTenantCrashRecovery SIGKILLs a daemon hosting three
// tenants and restarts it over the same WAL base directory: every tenant
// must recover its acknowledged history independently, and — because all
// three were driven with the same fixed-seed admission prefix — each must
// match a never-crashed single-tenant daemon byte for byte.
func TestDaemonMultiTenantCrashRecovery(t *testing.T) {
	walDir := t.TempDir()
	const seed = "11"
	tenants := []string{"eu-west", "ap-south", "default"}

	victim := spawnDaemon(t, "-seed", seed, "-wal-dir", walDir)
	var facts struct {
		NumDCs   int `json:"numDCs"`
		NumNodes int `json:"numNodes"`
	}
	if err := json.Unmarshal(marketBody(t, victim.url), &facts); err != nil {
		t.Fatal(err)
	}
	wl := workload.Default(9)
	client := &http.Client{Timeout: 5 * time.Second}
	const perTenant = 8
	for i := 0; i < perTenant; i++ {
		p := wl.DrawProvider(rng.Substream(9, uint64(i)), facts.NumDCs, facts.NumNodes)
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range tenants {
			resp, err := client.Post(victim.url+"/v1/t/"+tn+"/providers", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("tenant %s admission %d: status %d", tn, i, resp.StatusCode)
			}
		}
	}
	tenantMarket := func(t *testing.T, base, tn string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/v1/t/" + tn + "/market")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s market: %d: %s", tn, resp.StatusCode, data)
		}
		return data
	}
	want := map[string][]byte{}
	for _, tn := range tenants {
		want[tn] = tenantMarket(t, victim.url, tn)
	}
	victim.cmd.Process.Kill()
	<-victim.waitc
	victim.waitc <- nil

	recovered := spawnDaemon(t, "-seed", seed, "-wal-dir", walDir)
	for _, tn := range tenants {
		if got := tenantMarket(t, recovered.url, tn); !bytes.Equal(got, want[tn]) {
			t.Errorf("tenant %s diverged across SIGKILL:\n got %s\nwant %s", tn, got, want[tn])
		}
	}

	// Same-prefix single-tenant reference: tenancy must not change a
	// single placement decision.
	ref := spawnDaemon(t, "-seed", seed)
	for i := 0; i < perTenant; i++ {
		p := wl.DrawProvider(rng.Substream(9, uint64(i)), facts.NumDCs, facts.NumNodes)
		body, _ := json.Marshal(p)
		resp, err := client.Post(ref.url+"/v1/providers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("reference admission %d: status %d", i, resp.StatusCode)
		}
	}
	refView := marketBody(t, ref.url)
	for _, tn := range tenants {
		if got := tenantMarket(t, recovered.url, tn); !bytes.Equal(got, refView) {
			t.Errorf("tenant %s diverged from single-tenant reference:\n got %s\nwant %s", tn, got, refView)
		}
	}
	recovered.terminate(t)
	ref.terminate(t)
}

// TestDaemonRestartAfterKillWithSnapshot covers the combined path: a
// snapshot plus a WAL tail, killed without warning, must recover through
// restore-then-replay.
func TestDaemonRestartAfterKillWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "market.json")

	d := spawnDaemon(t, "-seed", "7", "-wal-dir", walDir, "-snapshot", snap)
	var facts struct {
		NumDCs   int `json:"numDCs"`
		NumNodes int `json:"numNodes"`
	}
	if err := json.Unmarshal(marketBody(t, d.url), &facts); err != nil {
		t.Fatal(err)
	}
	wl := workload.Default(3)
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 6; i++ {
		p := wl.DrawProvider(rng.Substream(3, uint64(i)), facts.NumDCs, facts.NumNodes)
		body, _ := json.Marshal(p)
		resp, err := client.Post(d.url+"/v1/providers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if i == 2 {
			// Snapshot mid-burst: admissions 0..2 land in the snapshot,
			// 3..5 only in the WAL tail.
			sresp, err := client.Post(d.url+"/v1/admin/snapshot", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, sresp.Body)
			sresp.Body.Close()
			if sresp.StatusCode != http.StatusOK {
				t.Fatalf("admin snapshot: %d", sresp.StatusCode)
			}
		}
	}
	want := marketBody(t, d.url)
	d.cmd.Process.Kill()
	<-d.waitc
	d.waitc <- nil

	d2 := spawnDaemon(t, "-seed", "7", "-wal-dir", walDir, "-snapshot", snap)
	if got := marketBody(t, d2.url); !bytes.Equal(got, want) {
		t.Fatalf("snapshot+WAL recovery diverged:\n%s\nvs\n%s", got, want)
	}
	d2.terminate(t)
}
