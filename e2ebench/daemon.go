package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a launch or a WAL recovery may take before
// the run is abandoned (mecd's own readiness probe gives up after 30 s).
const readyTimeout = 60 * time.Second

// daemon is one mecd child process. The benchmark never leaves one
// running: every launch is tracked in live until it has been waited for.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, valid after exited
	log    *os.File
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// launch starts mecd in dir with args plus a loopback listener and a port
// file, and returns once the port file names the bound address: mecd
// writes it only after its own /healthz probe has answered 200. The
// returned duration runs from process start to that moment. Relative paths
// in args resolve against dir.
func launch(bin, dir string, args []string) (*daemon, time.Duration, error) {
	portFile := filepath.Join(dir, "mecd.port")
	if err := os.Remove(portFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "mecd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	full := append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-port-file", "mecd.port")
	d := &daemon{cmd: exec.Command(bin, full...), exited: make(chan struct{}), log: logf}
	d.cmd.Dir = dir
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	// The kernel kills the daemon if this process dies first, so no child
	// outlives an interrupted benchmark.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start mecd: %w", err)
	}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := start.Add(readyTimeout)
	for {
		if data, err := os.ReadFile(portFile); err == nil {
			if _, _, err := net.SplitHostPort(string(data)); err == nil {
				d.base = "http://" + string(data)
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			d.forget()
			return nil, 0, fmt.Errorf("mecd exited before ready (%v): %s", d.err, logTail(logf.Name()))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("mecd not ready within %v: %s", readyTimeout, logTail(logf.Name()))
		}
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds reads the CPU time the daemon has used so far, user plus
// system, over all its threads, from /proc/<pid>/stat. The kernel charges
// a task only for time it ran, so time the hypervisor gave to other guests
// (steal) is not in it.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return statCPUSeconds(data)
}

// userHz is the unit of the CPU times in /proc/<pid>/stat; Linux fixes it
// at 100 for user space whatever the kernel's own tick rate.
const userHz = 100

// statCPUSeconds sums utime and stime (fields 14 and 15) of a
// /proc/<pid>/stat line, in seconds. The command name (field 2) is
// parenthesised and may itself hold spaces and parentheses, so the fields
// are counted from the last ')'.
func statCPUSeconds(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("no command name in /proc stat line %q", stat)
	}
	f := strings.Fields(string(stat[i+1:])) // f[0] is the state, field 3
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat CPU time: %w", err)
		}
		ticks += v
	}
	return float64(ticks) / userHz, nil
}

// machineTicks reads the machine's CPU time from /proc/stat: the ticks
// the hypervisor stole and the total, over all CPUs.
func machineTicks() ([2]uint64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}, err
	}
	return statTicks(data)
}

// statTicks parses the first, all-CPU line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal ticks. The guest columns
// after them are already counted in user and nice.
func statTicks(stat []byte) ([2]uint64, error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return [2]uint64{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]uint64
	var total uint64
	for i := range v {
		n, err := strconv.ParseUint(f[1+i], 10, 64)
		if err != nil {
			return [2]uint64{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		v[i] = n
		total += n
	}
	return [2]uint64{v[7], total}, nil
}

// stop shuts the daemon down with SIGTERM and requires a clean exit.
func (d *daemon) stop() error {
	defer d.forget()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal mecd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("mecd did not stop within 30s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("mecd exit: %v: %s", d.err, logTail(d.log.Name()))
	}
	return nil
}

// kill is kill -9: the crash the WAL must survive.
func (d *daemon) kill() {
	defer d.forget()
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) forget() {
	d.log.Close()
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// killAll reaps every daemon still running; deferred by main so that no
// exit path leaves a child behind.
func killAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// logTail returns the last lines of a daemon log for error messages.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return string(bytes.Join(lines, []byte(" | ")))
}
