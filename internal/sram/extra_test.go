package sram

import (
	"errors"
	"reflect"
	"testing"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
)

func TestByteAccessors(t *testing.T) {
	a := mustNew(t, testSpec(101))
	if _, err := a.ByteAt(0); err != ErrUnpowered {
		t.Errorf("ByteAt unpowered: %v", err)
	}
	if err := a.SetByteAt(0, 1); err != ErrUnpowered {
		t.Errorf("SetByteAt unpowered: %v", err)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.SetByteAt(5, 0xC3); err != nil {
		t.Fatal(err)
	}
	b, err := a.ByteAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0xC3 {
		t.Errorf("byte = %#x", b)
	}
	if _, err := a.ByteAt(-1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := a.ByteAt(a.Bytes()); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := a.SetByteAt(a.Bytes(), 0); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestSpecAccessor(t *testing.T) {
	spec := testSpec(102)
	a := mustNew(t, spec)
	if got := a.Spec(); got.Seed != spec.Seed || got.Rows != spec.Rows {
		t.Errorf("Spec() = %+v", got)
	}
}

func TestCaptureVotesConsistentWithMajority(t *testing.T) {
	a := mustNew(t, testSpec(103))
	votes, err := a.captureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(votes) != a.Cells() {
		t.Fatalf("votes length = %d", len(votes))
	}
	for i, v := range votes {
		if v > 5 {
			t.Fatalf("cell %d has %d votes of 5", i, v)
		}
	}
	// Vote counts must track the bias: strongly positive-bias cells read
	// 1 every time.
	for i := 0; i < a.Cells(); i++ {
		if a.Bias(i) > 20 && votes[i] != 5 {
			t.Fatalf("cell %d: bias %v but %d/5 votes", i, a.Bias(i), votes[i])
		}
		if a.Bias(i) < -20 && votes[i] != 0 {
			t.Fatalf("cell %d: bias %v but %d/5 votes", i, a.Bias(i), votes[i])
		}
	}
	if _, err := a.captureVotes(0, 25); err == nil {
		t.Error("zero captures accepted")
	}
}

func TestOperateRandomValidation(t *testing.T) {
	a := mustNew(t, testSpec(104))
	w := rng.NewWorkloadWriter(1, 0)
	cond := analog.Conditions{VoltageV: 1.2, TempC: 25}
	if err := a.OperateRandom(w, cond, 1, 1); err != ErrUnpowered {
		t.Errorf("unpowered operate: %v", err)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.OperateRandom(w, cond, 1, 0); err == nil {
		t.Error("zero epoch accepted")
	}
	if err := a.OperateRandom(w, cond, 0, 1); err != nil {
		t.Errorf("zero duration should be a no-op: %v", err)
	}
	// Partial final epoch: 1.5h in 1h epochs.
	if err := a.OperateRandom(w, cond, 1.5, 1); err != nil {
		t.Fatal(err)
	}
}

// TestStateSnapshotRoundTripInPackage: the state section carries a
// powered, written and stressed array whole — a fresh array of the same
// spec that reads it has the same snapshot and biases, and ReadState
// returns the bytes after the section — and the restored array does not
// alias the section it was read from.
func TestStateSnapshotRoundTripInPackage(t *testing.T) {
	a := mustNew(t, testSpec(106))
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.Fill(0x5A); err != nil {
		t.Fatal(err)
	}
	if err := a.Stress(analog.Conditions{VoltageV: 3.3, TempC: 85}, 2); err != nil {
		t.Fatal(err)
	}
	sec := a.AppendState(nil)

	b := mustNew(t, testSpec(106))
	rest, err := b.ReadState(append(append([]byte(nil), sec...), "tail"...))
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "tail" {
		t.Fatalf("ReadState left %q after the section, want %q", rest, "tail")
	}
	if !reflect.DeepEqual(a.StateSnapshot(), b.StateSnapshot()) {
		t.Fatal("snapshot differs after an AppendState/ReadState round trip")
	}
	if !b.Powered() {
		t.Error("powered flag not restored")
	}
	data, err := b.Read()
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x5A {
		t.Error("contents not restored")
	}
	// Aging state equality: identical per-cell decision variables.
	for i := 0; i < a.Cells(); i += 97 {
		if a.Bias(i) != b.Bias(i) {
			t.Fatalf("cell %d bias diverged: %v vs %v", i, a.Bias(i), b.Bias(i))
		}
	}
	// Overwriting the section must not reach the restored array.
	c := mustNew(t, testSpec(106))
	if _, err := c.ReadState(sec); err != nil {
		t.Fatal(err)
	}
	clear(sec)
	if d, _ := c.Read(); d[0] != 0x5A {
		t.Error("ReadState aliased the section's data plane")
	}
	if !reflect.DeepEqual(a.StateSnapshot(), c.StateSnapshot()) {
		t.Error("ReadState aliased the section's class table")
	}
}

// TestReadStateSeedMismatchInPackage: a state section written by another
// die is refused with ErrStateMismatch, and the array is left as it was.
func TestReadStateSeedMismatchInPackage(t *testing.T) {
	a := mustNew(t, testSpec(107))
	b := mustNew(t, testSpec(108))
	before := b.StateSnapshot()
	if _, err := b.ReadState(a.AppendState(nil)); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("foreign seed: %v, want ErrStateMismatch", err)
	}
	if !reflect.DeepEqual(before, b.StateSnapshot()) {
		t.Fatal("a refused section changed the array")
	}
}
