package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"mecache/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func span(id, parent uint64, stage string, startMs, durMs float64) obs.Span {
	return obs.Span{
		ID: id, Parent: parent, Trace: "t", Stage: stage,
		Start:    t0.Add(time.Duration(startMs * float64(time.Millisecond))),
		Duration: durMs / 1e3,
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span(1, 0, obs.StageRequest, 0, 100)
	for _, c := range []struct {
		name     string
		children []obs.Span
		wantMs   float64
	}{
		{"no children", nil, 100},
		{"disjoint", []obs.Span{span(2, 1, "a", 10, 20), span(3, 1, "b", 50, 10)}, 70},
		// An epoch span overlapping the solve span beside it under apply
		// must not be subtracted twice.
		{"overlapping", []obs.Span{span(2, 1, "a", 10, 20), span(3, 1, "b", 20, 20)}, 70},
		{"nested", []obs.Span{span(2, 1, "a", 10, 50), span(3, 1, "b", 20, 10)}, 50},
		// A child reaching outside the parent is clipped to it.
		{"clipped", []obs.Span{span(2, 1, "a", -5, 10), span(3, 1, "b", 90, 30)}, 85},
		{"covering", []obs.Span{span(2, 1, "a", -1, 200)}, 0},
	} {
		if got := selfTime(parent, c.children) * 1e3; !near(got, c.wantMs) {
			t.Errorf("%s: self = %vms, want %vms", c.name, got, c.wantMs)
		}
	}
}

func TestTraceFilterKeepsOnlyThisRunsTraces(t *testing.T) {
	run := newTraceIDs(7, saltChurn)
	mine, header := run.mint(3)
	if trace, _, ok := obs.ParseTraceparent(header); !ok || trace != mine {
		t.Fatalf("minted header %q does not carry trace %s", header, mine)
	}
	// A rerun with the same seed mints the same IDs, which is why the
	// filter is a set of what this run handed out, not a pattern.
	if again, _ := newTraceIDs(7, saltChurn).mint(3); again != mine {
		t.Fatalf("minting is not a pure function of (seed, salt, index)")
	}
	earlier := obs.MintTraceID(7^saltChurn, 4) // same run shape, never minted here
	otherSeed := obs.MintTraceID(8^saltChurn, 3)
	otherWorkload := obs.MintTraceID(7^saltEpoch, 3)
	spans := []obs.Span{
		{ID: 1, Trace: mine, Stage: obs.StageRequest},
		{ID: 2, Trace: earlier, Stage: obs.StageRequest},
		{ID: 3, Trace: otherSeed, Stage: obs.StageRequest},
		{ID: 4, Trace: otherWorkload, Stage: obs.StageRequest},
		{ID: 5, Parent: 1, Trace: mine, Stage: obs.StageApply},
	}
	kept := run.keep(spans)
	if len(kept) != 2 || kept[0].ID != 1 || kept[1].ID != 5 {
		t.Errorf("kept %+v, want spans 1 and 5", kept)
	}
}

func TestDecodeSpansRefusesWrappedRing(t *testing.T) {
	body := func(recorded, capacity int) []byte {
		b, _ := json.Marshal(map[string]any{"enabled": true, "capacity": capacity, "recorded": recorded, "spans": []obs.Span{}})
		return b
	}
	if _, err := decodeSpans(body(10, 10)); err != nil {
		t.Errorf("full ring rejected: %v", err)
	}
	if _, err := decodeSpans(body(11, 10)); err == nil {
		t.Error("wrapped ring accepted")
	}
	if _, err := decodeSpans([]byte(`{"enabled":false,"spans":[]}`)); err == nil {
		t.Error("disabled ring accepted")
	}
}

func TestBatchSizeMeanGroupsSharedPublishSpans(t *testing.T) {
	spans := []obs.Span{
		span(1, 10, obs.StagePublish, 0, 1), // batch of two traced commands
		span(2, 11, obs.StagePublish, 0, 1),
		span(3, 12, obs.StagePublish, 5, 1), // batch of one
		span(4, 12, obs.StageApply, 4, 1),
	}
	if got := batchSizeMean(spans); got != 1.5 {
		t.Errorf("batch size = %v, want 1.5", got)
	}
	if got := batchSizeMean(nil); got != 0 {
		t.Errorf("batch size of no spans = %v, want 0", got)
	}
}

func TestGroupTracesFindsRootAndChildren(t *testing.T) {
	spans := []obs.Span{
		span(5, 1, obs.StageBestResponse, 20, 5),
		span(1, 0, obs.StageRequest, 0, 100),
		span(2, 1, obs.StageApply, 10, 30),
		span(5, 2, obs.StageEpochSolve, 12, 20),
	}
	spans[0].Trace = "other"
	tree := groupTraces(spans)["t"]
	if tree == nil || !tree.hasRoot || tree.root.ID != 1 {
		t.Fatalf("no request root found: %+v", tree)
	}
	if sp, ok := tree.spanIn(obs.StageApply, obs.StageEpochSolve); !ok || sp.ID != 5 {
		t.Errorf("epoch_solve under apply = %+v, %v", sp, ok)
	}
	if _, ok := tree.child(1, obs.StageBestResponse); ok {
		t.Error("a span of another trace leaked into this tree")
	}
}
