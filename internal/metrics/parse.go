// Prometheus text-format (version 0.0.4) parsing. The parser is the
// consumer-side twin of WritePrometheus: strict in that it rejects
// everything the spec does not allow, so a scrape pipeline built on it
// (the mecexp experiment runner, CI smoke assertions) can never drift into
// "works with our renderer" laxness. It was born as test-only code
// validating the renderer and is exported because the experiment harness
// needs structured samples, not grep.
package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line: a metric name (for histograms the
// family name plus a _bucket/_sum/_count suffix), its label set, and the
// value.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Family is one parsed metric family: the HELP/TYPE metadata plus every
// sample rendered under it, in exposition order.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Type    string   `json:"type"`
	Samples []Sample `json:"samples"`
}

// ParseText is a strict parser of the Prometheus text exposition format:
// HELP (optional) must immediately precede TYPE, TYPE must precede the
// family's samples, sample names must be the family name (plus
// _bucket/_sum/_count for histograms and summaries), label blocks must
// parse with escaping, values must be valid floats, and no family may
// repeat. Families are returned in exposition order.
func ParseText(r io.Reader) ([]Family, error) {
	var fams []Family
	seen := map[string]bool{}
	var cur *Family
	pendingHelp := "" // HELP seen, TYPE not yet
	pendingName := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(scanLF)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if pendingHelp != "" {
				return nil, fmt.Errorf("metrics: line %d: HELP not followed by TYPE", lineNo)
			}
			rest := strings.TrimPrefix(line, "# HELP ")
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("metrics: line %d: HELP without docstring: %q", lineNo, line)
			}
			help, ok := unescapeHelp(rest[sp+1:])
			if !ok {
				return nil, fmt.Errorf("metrics: line %d: invalid escape in HELP: %q", lineNo, line)
			}
			pendingName, pendingHelp = rest[:sp], help
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("metrics: line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("metrics: line %d: invalid type %q", lineNo, typ)
			}
			if pendingHelp != "" && pendingName != name {
				return nil, fmt.Errorf("metrics: line %d: HELP for %q followed by TYPE for %q", lineNo, pendingName, name)
			}
			if seen[name] {
				return nil, fmt.Errorf("metrics: line %d: family %q appears twice", lineNo, name)
			}
			seen[name] = true
			fams = append(fams, Family{Name: name, Help: pendingHelp, Type: typ})
			cur = &fams[len(fams)-1]
			pendingHelp, pendingName = "", ""
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("metrics: line %d: unexpected comment %q", lineNo, line)
		default:
			if cur == nil {
				return nil, fmt.Errorf("metrics: line %d: sample before any TYPE: %q", lineNo, line)
			}
			s, err := parseSampleLine(lineNo, line)
			if err != nil {
				return nil, err
			}
			base := cur.Name
			ok := s.Name == base
			if cur.Type == "histogram" || cur.Type == "summary" {
				ok = ok || s.Name == base+"_bucket" || s.Name == base+"_sum" || s.Name == base+"_count"
			}
			if !ok {
				return nil, fmt.Errorf("metrics: line %d: sample %q under family %q", lineNo, s.Name, base)
			}
			cur.Samples = append(cur.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: read exposition: %w", err)
	}
	if pendingHelp != "" {
		return nil, fmt.Errorf("metrics: trailing HELP for %q without TYPE", pendingName)
	}
	return fams, nil
}

// scanLF splits on line feeds only. The text format ends every line with
// \n; a carriage return is data, which bufio.ScanLines would silently drop
// from the end of a line.
func scanLF(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// unescapeHelp decodes a HELP docstring, whose only escapes are \\ and \n.
// ok is false for any other backslash sequence.
func unescapeHelp(s string) (string, bool) {
	if strings.IndexByte(s, '\\') < 0 {
		return s, true
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i+1 >= len(s) {
			return "", false
		}
		i++
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", false
		}
	}
	return b.String(), true
}

// parseSampleLine parses `name{k="v",...} value` with full escape handling.
func parseSampleLine(lineNo int, line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	bad := func(format string, args ...any) (Sample, error) {
		return Sample{}, fmt.Errorf("metrics: line %d: "+format, append([]any{lineNo}, args...)...)
	}
	i := 0
	for i < len(line) {
		c := line[i]
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !alpha {
			break
		}
		i++
	}
	if i == 0 {
		return bad("no metric name in %q", line)
	}
	s.Name = line[:i]
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return bad("unterminated label block")
			}
			if line[i] == '}' {
				i++
				break
			}
			eq := strings.IndexByte(line[i:], '=')
			if eq < 0 {
				return bad("label without =")
			}
			key := line[i : i+eq]
			i += eq + 1
			if i >= len(line) || line[i] != '"' {
				return bad("unquoted label value")
			}
			i++
			var val strings.Builder
			for {
				if i >= len(line) {
					return bad("unterminated label value")
				}
				if line[i] == '\\' {
					if i+1 >= len(line) {
						return bad("dangling escape")
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return bad("invalid escape \\%c", line[i+1])
					}
					i += 2
					continue
				}
				if line[i] == '"' {
					i++
					break
				}
				val.WriteByte(line[i])
				i++
			}
			if _, dup := s.Labels[key]; dup {
				return bad("duplicate label %q", key)
			}
			s.Labels[key] = val.String()
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return bad("no space before value in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line[i:]), 64)
	if err != nil {
		return bad("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// FindFamily returns the family with the given name, if present.
func FindFamily(fams []Family, name string) (Family, bool) {
	for _, f := range fams {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// FindSample returns the first sample named name (a family name or a
// histogram's _bucket/_sum/_count series) whose label set includes every
// given ("key", "value", ...) pair. Subset matching is deliberate: a caller
// asserting on result="accepted" should not break when a tenant label is
// added to the series.
func FindSample(fams []Family, name string, labelKV ...string) (Sample, bool) {
	if len(labelKV)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			match := true
			for i := 0; i < len(labelKV); i += 2 {
				if s.Labels[labelKV[i]] != labelKV[i+1] {
					match = false
					break
				}
			}
			if match {
				return s, true
			}
		}
	}
	return Sample{}, false
}

// histSeries tracks the scrape-contract state of one histogram series (one
// non-le label combination) while CheckHistogram walks a family.
type histSeries struct {
	prevCount float64
	prevBound float64
	infBucket float64
	sum       float64
	count     float64
	haveInf   bool
	haveSum   bool
	haveCount bool
}

// CheckHistogram validates the scrape contract of one histogram family. A
// family holds one series per non-le label combination (e.g. per route);
// each series must have strictly increasing bucket bounds, cumulative
// non-decreasing counts, and a final +Inf bucket equal to its _count. It
// returns the count and sum totalled across every series.
func CheckHistogram(f Family) (count float64, sum float64, err error) {
	if f.Type != "histogram" {
		return 0, 0, fmt.Errorf("metrics: %s: type %q, want histogram", f.Name, f.Type)
	}
	series := map[string]*histSeries{}
	var order []string
	get := func(labels map[string]string) *histSeries {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%q,", k, labels[k])
		}
		id := b.String()
		h, ok := series[id]
		if !ok {
			h = &histSeries{prevCount: -1, prevBound: math.Inf(-1)}
			series[id] = h
			order = append(order, id)
		}
		return h
	}
	for _, s := range f.Samples {
		h := get(s.Labels)
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return 0, 0, fmt.Errorf("metrics: %s: bucket without le label", f.Name)
			}
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(1)
				h.infBucket = s.Value
				h.haveInf = true
			} else {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return 0, 0, fmt.Errorf("metrics: %s: bad le %q", f.Name, le)
				}
				bound = b
			}
			if bound <= h.prevBound {
				return 0, 0, fmt.Errorf("metrics: %s: bucket bounds not increasing (%v after %v)", f.Name, bound, h.prevBound)
			}
			if s.Value < h.prevCount {
				return 0, 0, fmt.Errorf("metrics: %s: cumulative counts decreased (%v after %v)", f.Name, s.Value, h.prevCount)
			}
			h.prevCount, h.prevBound = s.Value, bound
		case f.Name + "_sum":
			if h.haveSum {
				return 0, 0, fmt.Errorf("metrics: %s: duplicate _sum for one series", f.Name)
			}
			h.sum, h.haveSum = s.Value, true
		case f.Name + "_count":
			if h.haveCount {
				return 0, 0, fmt.Errorf("metrics: %s: duplicate _count for one series", f.Name)
			}
			h.count, h.haveCount = s.Value, true
		default:
			return 0, 0, fmt.Errorf("metrics: %s: unexpected sample %q", f.Name, s.Name)
		}
	}
	if len(series) == 0 {
		return 0, 0, fmt.Errorf("metrics: %s: histogram family has no samples", f.Name)
	}
	for _, id := range order {
		h := series[id]
		if !h.haveInf || !h.haveSum || !h.haveCount {
			return 0, 0, fmt.Errorf("metrics: %s{%s}: missing +Inf/_sum/_count (%v %v %v)", f.Name, strings.TrimSuffix(id, ","), h.haveInf, h.haveSum, h.haveCount)
		}
		if h.infBucket != h.count {
			return 0, 0, fmt.Errorf("metrics: %s{%s}: +Inf bucket %v != count %v", f.Name, strings.TrimSuffix(id, ","), h.infBucket, h.count)
		}
		count += h.count
		sum += h.sum
	}
	return count, sum, nil
}
