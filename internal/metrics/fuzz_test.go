package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseText feeds the strict parser arbitrary bytes: it must never
// panic, and whatever it accepts must be well formed. The same bytes then
// serve as a HELP docstring and a label value of a registry whose own
// exposition the parser must read back exactly.
func FuzzParseText(f *testing.F) {
	for _, seed := range []string{
		"# HELP a doc\n# HELP b doc\n",
		"# HELP a doc\n# TYPE b counter\n",
		"# HELP a doc\n",
		"# TYPE a thing\n",
		"# TYPE a counter\na 1\n# TYPE a counter\na 2\n",
		"# COMMENT hi\n",
		"a 1\n",
		"# TYPE a counter\nb 1\n",
		"# TYPE a counter\na_sum 1\n",
		"# TYPE a counter\na\n",
		"# TYPE a counter\na zero\n",
		"# TYPE a counter\na{x=\"1\" 1\n",
		"# TYPE a counter\na{x=\"1\n",
		"# TYPE a counter\na{x=1} 1\n",
		"# TYPE a counter\na{x=\"\\t\"} 1\n",
		"# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n",
		"# HELP a_total Things \\\\ with \\n escapes.\n" +
			"# TYPE a_total counter\n" +
			"a_total{k=\"v\\\"q\\\"\",z=\"line\\nbreak\"} 3\n" +
			"a_total 4.5\n" +
			"# TYPE lat histogram\n" +
			"lat_bucket{le=\"0.1\"} 1\n" +
			"lat_bucket{le=\"+Inf\"} 2\n" +
			"lat_sum 1.5\n" +
			"lat_count 2\n",
		"trailing carriage return\r",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if fams, err := ParseText(strings.NewReader(text)); err == nil {
			for _, fam := range fams {
				for _, s := range fam.Samples {
					if !strings.HasPrefix(s.Name, fam.Name) {
						t.Fatalf("sample %q accepted under family %q", s.Name, fam.Name)
					}
				}
			}
		}

		reg := NewRegistry()
		v := float64(len(text)) / 3
		reg.Gauge("fuzz_gauge", text, "k", text).Set(v)
		reg.Counter("fuzz_total", "help", "k", text, "z", "fixed").Add(v)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseText(&buf)
		if err != nil {
			t.Fatalf("own exposition rejected: %v\n%s", err, buf.String())
		}
		if len(fams) != 2 {
			t.Fatalf("parsed %d families, want 2", len(fams))
		}
		g, c := fams[0], fams[1]
		if g.Name != "fuzz_gauge" || g.Type != "gauge" || g.Help != text {
			t.Fatalf("gauge family %q %q help %q, want help %q", g.Name, g.Type, g.Help, text)
		}
		if c.Name != "fuzz_total" || c.Type != "counter" || c.Help != "help" {
			t.Fatalf("counter family %+v", c)
		}
		if len(g.Samples) != 1 || len(c.Samples) != 1 {
			t.Fatalf("sample counts %d/%d, want 1/1", len(g.Samples), len(c.Samples))
		}
		for _, s := range []Sample{g.Samples[0], c.Samples[0]} {
			if s.Labels["k"] != text || math.Float64bits(s.Value) != math.Float64bits(v) {
				t.Fatalf("sample %q labels %q value %v, want k=%q value %v", s.Name, s.Labels, s.Value, text, v)
			}
		}
		if c.Samples[0].Labels["z"] != "fixed" {
			t.Fatalf("counter labels %q", c.Samples[0].Labels)
		}
	})
}
