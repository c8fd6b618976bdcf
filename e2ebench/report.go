package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check; any failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// provenance pins what a result was measured on, so a claim can be
// rechecked: the tree, the toolchain, the machine's CPU budget, the seed
// and the exact daemon flags.
type provenance struct {
	Commit       string              `json:"commit"`
	SourceSHA256 string              `json:"sourceSHA256,omitempty"`
	GoVersion    string              `json:"goVersion"`
	NumCPU       int                 `json:"nproc"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	Seed         uint64              `json:"seed"`
	Seconds      int                 `json:"seconds"`
	MecdFlags    map[string][]string `json:"mecdFlags"`
}

// report is everything one run prints. The last stdout line carries only
// the result contract (correct, attempted, failed, metrics); the report
// before it carries the workload's figures under the names the workload
// defines them by, sample counts, checks and provenance.
type report struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Provenance provenance        `json:"provenance"`
	Named      map[string]metric `json:"named,omitempty"`
	Samples    map[string]int    `json:"samples"`
	Notes      map[string]string `json:"notes,omitempty"`
	Checks     []check           `json:"checks"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	ErrorRate  float64           `json:"error_rate"`
	metrics    map[string]metric
}

func newReport(workload string, traced bool, prov provenance) *report {
	return &report{
		Workload:   workload,
		Traced:     traced,
		Provenance: prov,
		Named:      map[string]metric{},
		Samples:    map[string]int{},
		Notes:      map[string]string{},
		metrics:    map[string]metric{},
	}
}

func (r *report) check(name string, ok bool, detail string) {
	if ok {
		detail = ""
	}
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

func (r *report) set(name string, v float64, unit string)  { r.metrics[name] = metric{v, unit} }
func (r *report) name(name string, v float64, unit string) { r.Named[name] = metric{v, unit} }

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0 && len(r.Checks) > 0
}

// write prints the readable report, then the one-line result.
func (r *report) write(w io.Writer, t tally) error {
	r.Attempted, r.Failed, r.ErrorRate = t.attempted, t.failed, t.errorRate()
	r.name("error_rate", t.errorRate(), "fraction")
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), t.attempted, t.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

// sourceDigest hashes the Go sources and module files under root (paths
// and contents, in path order). It identifies the tree under test when the
// checkout is not a git repository and so has no commit to record.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "results") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func newProvenance(root, commit string, seed uint64, seconds int) (provenance, error) {
	var digest string
	if commit == "" {
		var err error
		if digest, err = sourceDigest(root); err != nil {
			return provenance{}, err
		}
		commit = "unknown"
	}
	return provenance{
		Commit:       commit,
		SourceSHA256: digest,
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Seed:         seed,
		Seconds:      seconds,
		MecdFlags:    map[string][]string{},
	}, nil
}
