package obs

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds the header parser arbitrary values: it must
// never panic, an accepted header yields lowercase-hex, non-zero IDs cut
// from the input, and for the sampled flag 01 FormatTraceparent rebuilds
// the input exactly.
func FuzzParseTraceparent(f *testing.F) {
	valid := FormatTraceparent(MintTraceID(1, 2), 3)
	for _, seed := range []string{
		FormatTraceparent(MintTraceID(3, 99), 0x1234),
		FormatTraceparent(MintTraceID(3, 99), 0),
		valid,
		"",
		"garbage",
		valid[:len(valid)-1],
		"01" + valid[2:],
		strings.Replace(valid, "-", "_", 1),
		"00-" + strings.Repeat("0", 32) + "-0000000000000001-01",
		"00-" + MintTraceID(1, 2) + "-0000000000000000-01",
		"00-" + strings.ToUpper(MintTraceID(10, 11)) + "-0000000000000001-01",
		"00-" + MintTraceID(1, 2) + "-0000000000000001-00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		trace, parent, ok := ParseTraceparent(h)
		if !ok {
			if trace != "" || parent != "" {
				t.Fatalf("rejected %q but returned %q, %q", h, trace, parent)
			}
			return
		}
		if len(trace) != 32 || len(parent) != 16 || !isHex(trace) || !isHex(parent) ||
			allZero(trace) || allZero(parent) {
			t.Fatalf("accepted %q with invalid IDs %q, %q", h, trace, parent)
		}
		if !strings.Contains(h, trace) || !strings.Contains(h, parent) {
			t.Fatalf("IDs %q, %q are not cut from %q", trace, parent, h)
		}
		if !strings.HasSuffix(h, "-01") {
			return
		}
		p, err := strconv.ParseUint(parent, 16, 64)
		if err != nil {
			t.Fatalf("parent %q: %v", parent, err)
		}
		if got := FormatTraceparent(trace, p); got != h {
			t.Fatalf("FormatTraceparent(%q, %#x) = %q, want %q", trace, p, got, h)
		}
	})
}
