package sram

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"invisiblebits/internal/rng"
)

// TestSteadySoakEquivalence holds the table-only Stress and
// AppendState's index reuse to the full path. A 16 KiB array holds one
// payload through 16 one-hour slices, with AppendState after every
// second slice, and every slice runs twice from the same state: on
// steady, which keeps its record, and on full, whose record is dropped
// before each slice, so it runs all four steps and packs every index
// afresh. Between slices the script writes one bit, rewrites the same
// bytes, shelves at 45 °C, power-cycles (remanent and discharged),
// saves and reloads, and gives two classes that hold different bits
// equal values, so a section merges them and the next slice splits
// them again. After every slice the class arrays, the tables'
// bits and the bias planes must be equal, and so must the state
// sections at each checkpoint; steady must take the path the script
// names.
func TestSteadySoakEquivalence(t *testing.T) {
	spec := DefaultSpec()
	spec.Rows, spec.Cols = 256, 512
	spec.Seed = 0x535445414459 // "STEADY"
	steady, full := mustNew(t, spec), mustNew(t, spec)
	payload := make([]byte, steady.Bytes())
	rng.NewSource(30).Bytes(payload)
	flipped := bytes.Clone(payload)
	flipped[1000] ^= 1 << 5
	acc := spec.Aging.Ref

	write := func(p []byte) func(*Array) error {
		return func(a *Array) error { return a.Write(p) }
	}
	cycle := func(discharge bool) func(*Array) error {
		return func(a *Array) error {
			a.PowerOff(discharge)
			_, err := a.PowerOn(25)
			return err
		}
	}
	shelf := func(a *Array) error {
		a.PowerOff(true)
		if err := a.ShelveAt(12, 45); err != nil {
			return err
		}
		_, err := a.PowerOn(25)
		return err
	}
	reload := func(a *Array) error {
		_, err := a.ReadState(a.AppendState(nil))
		return err
	}
	// equalize gives a class holding the other bit class 0's values, so
	// a section merges the two; the next slice grows them apart. The
	// renumbering changes twice while the class array does not.
	equalize := func(a *Array) error {
		bit := steady.heldPairs[0] & 1
		j := slices.IndexFunc(steady.heldPairs, func(pr uint32) bool { return pr&1 != bit })
		if j < 0 {
			return errors.New("every class holds one bit")
		}
		a.hist[j] = a.hist[0]
		return nil
	}
	script := []struct {
		name    string
		between []func(*Array) error
		steady  bool // the slice takes the table-only path
		grows   bool // the slice must add classes
		section bool // compare the sections before the slice too
	}{
		{"first slice", []func(*Array) error{cycle(true), write(payload)}, false, true, false},
		{"held", nil, true, false, false},
		{"same bytes rewritten", []func(*Array) error{write(payload)}, true, false, false},
		{"one bit written", []func(*Array) error{write(flipped)}, false, true, false},
		{"held after the write", nil, true, false, false},
		{"45 °C shelf, rewritten", []func(*Array) error{shelf, write(flipped)}, true, false, false},
		{"remanent power cycle", []func(*Array) error{cycle(false)}, true, false, false},
		{"discharged power cycle, rewritten", []func(*Array) error{cycle(true), write(flipped)}, true, false, false},
		{"discharged power cycle", []func(*Array) error{cycle(true)}, false, true, false},
		{"rewritten after the race", []func(*Array) error{write(flipped)}, false, false, false},
		{"held after the rewrite", nil, true, false, false},
		{"saved and reloaded", []func(*Array) error{reload}, false, false, false},
		{"held after the reload", nil, true, false, false},
		{"two classes merged in a section", []func(*Array) error{equalize}, true, false, true},
		{"held", nil, true, false, false},
		{"held", nil, true, false, false},
	}
	// live: steady has packed an index since its class array last
	// changed, so the next section may reuse it.
	live := false
	sameSection := func(s int, name string) {
		t.Helper()
		if kept := steady.packedRenum != nil; kept != live {
			t.Fatalf("slice %d (%s): packed index kept %v, want %v", s+1, name, kept, live)
		}
		if !bytes.Equal(steady.AppendState(nil), full.AppendState(nil)) {
			t.Fatalf("slice %d (%s): state sections differ", s+1, name)
		}
		live = true
	}
	for s, st := range script {
		for _, f := range st.between {
			for _, a := range []*Array{steady, full} {
				if err := f(a); err != nil {
					t.Fatalf("slice %d (%s): %v", s+1, st.name, err)
				}
			}
		}
		if st.section {
			sameSection(s, st.name+", before")
		}
		full.classesChanged()
		if got := steady.steady(); got != st.steady {
			t.Fatalf("slice %d (%s): table-only path %v, want %v", s+1, st.name, got, st.steady)
		}
		classes := len(steady.hist)
		for _, a := range []*Array{steady, full} {
			if err := a.Stress(acc, 1); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(steady.hist); (st.grows && n <= classes) || (st.steady && n != classes) {
			t.Fatalf("slice %d (%s): %d classes became %d", s+1, st.name, classes, len(steady.hist))
		}
		sameAging(t, s+1, st.name, steady, full)
		live = live && st.steady
		if s%2 == 1 {
			sameSection(s, st.name)
		}
	}
}

// sameAging fails unless a and b hold the same class array, the same
// table bit for bit and the same bias plane.
func sameAging(t *testing.T, slice int, name string, a, b *Array) {
	t.Helper()
	if !slices.Equal(a.class, b.class) {
		t.Fatalf("slice %d (%s): class arrays differ", slice, name)
	}
	if len(a.hist) != len(b.hist) {
		t.Fatalf("slice %d (%s): %d classes against %d", slice, name, len(a.hist), len(b.hist))
	}
	for k := range a.hist {
		if a.hist[k].key() != b.hist[k].key() {
			t.Fatalf("slice %d (%s): class %d differs", slice, name, k)
		}
	}
	for _, x := range []*Array{a, b} {
		if err := x.ensureBiasPlane(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := range a.biasPlane {
		if math.Float32bits(a.biasPlane[i]) != math.Float32bits(b.biasPlane[i]) {
			t.Fatalf("slice %d (%s): cell %d bias %v, want %v", slice, name, i, a.biasPlane[i], b.biasPlane[i])
		}
	}
}
