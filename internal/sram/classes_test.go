package sram

import (
	"bytes"
	"math"
	"testing"
)

// TestAppendStateMergesEqualClasses: two histories can reach the same
// floats, so the live class table may repeat a value. Splitting one
// class into two equal copies must change nothing the array shows: the
// image section is the unsplit twin's byte for byte, before and after
// both copies grow through another Stress, and so is every bias.
func TestAppendStateMergesEqualClasses(t *testing.T) {
	twin, split := mustNew(t, testSpec(201)), mustNew(t, testSpec(201))
	for _, a := range []*Array{twin, split} {
		ageArray(t, a)
	}
	if got := len(split.hist); got != 2 {
		t.Fatalf("a one-payload soak left %d classes, want 2", got)
	}
	// Every other cell of class 0 moves to an equal copy of it.
	copyID := uint32(len(split.hist))
	split.hist = append(split.hist, split.hist[0])
	moved := 0
	for i, c := range split.class {
		if c == 0 && i%2 == 0 {
			split.class[i] = copyID
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no cell moved to the copy")
	}
	same := func(stage string) {
		t.Helper()
		if !bytes.Equal(split.AppendState(nil), twin.AppendState(nil)) {
			t.Fatalf("%s: state section differs from the unsplit twin's", stage)
		}
		for i := 0; i < twin.Cells(); i++ {
			if x, y := split.Bias(i), twin.Bias(i); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: cell %d bias %v, twin %v", stage, i, x, y)
			}
		}
	}
	same("split")

	pattern := make([]byte, twin.Bytes())
	for i := range pattern {
		pattern[i] = byte(i*91 + 7)
	}
	for _, a := range []*Array{twin, split} {
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		if err := a.StressWithPattern(pattern, a.Spec().Aging.Ref, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	if len(split.hist) <= len(twin.hist) {
		t.Fatalf("split table has %d classes, twin %d: the copies merged in Stress", len(split.hist), len(twin.hist))
	}
	same("after a second stress")
}

// TestStressKeepsOneClassPerHistory: a sliced soak of one payload grows
// each history once, so the table holds one class per bit value, and
// a second payload at most doubles it.
func TestStressKeepsOneClassPerHistory(t *testing.T) {
	a := mustNew(t, testSpec(202))
	if got := len(a.hist); got != 1 {
		t.Fatalf("a new array has %d classes, want 1", got)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, a.Bytes())
	for i := range pattern {
		pattern[i] = byte(i*37 + 1)
	}
	for s := 0; s < 4; s++ {
		if err := a.StressWithPattern(pattern, a.Spec().Aging.Ref, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.hist); got != 2 {
		t.Fatalf("four slices of one payload left %d classes, want 2", got)
	}
	for i := range pattern {
		pattern[i] = byte(i*53 + 3)
	}
	if err := a.StressWithPattern(pattern, a.Spec().Aging.Ref, 2.5); err != nil {
		t.Fatal(err)
	}
	if got := len(a.hist); got != 4 {
		t.Fatalf("a second payload left %d classes, want 4", got)
	}
}
