package fleet

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stegocrypt"
)

func newFleet(t *testing.T, n int, sramBytes int) []*rig.Rig {
	t.Helper()
	m, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	rigs := make([]*rig.Rig, n)
	for i := range rigs {
		d, err := device.New(m, fmt.Sprintf("fleet-%d", i), device.WithSRAMLimit(sramBytes))
		if err != nil {
			t.Fatal(err)
		}
		rigs[i] = rig.New(d)
	}
	return rigs
}

func TestCharacterizeAndSelectBest(t *testing.T) {
	rigs := newFleet(t, 5, 8<<10)
	chars, err := Characterize(rigs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 5 {
		t.Fatalf("characterized %d devices", len(chars))
	}
	spread := false
	for i, c := range chars {
		if c.Index != i || c.DeviceID == "" {
			t.Errorf("characterization %d malformed: %+v", i, c)
		}
		if c.ChannelError < 0.03 || c.ChannelError > 0.11 {
			t.Errorf("device %d channel error %v implausible", i, c.ChannelError)
		}
		if c.ChannelError != chars[0].ChannelError {
			spread = true
		}
	}
	if !spread {
		t.Error("all devices identical — process variation missing")
	}
	best, err := SelectBest(chars)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chars {
		if c.ChannelError < best.ChannelError {
			t.Fatalf("SelectBest missed device %d", c.Index)
		}
	}
}

func TestSelectBestEmpty(t *testing.T) {
	if _, err := SelectBest(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Characterize(nil, 5); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestStripeGatherRoundTrip(t *testing.T) {
	rigs := newFleet(t, 3, 8<<10)
	key := stegocrypt.KeyFromPassphrase("stripe")
	rep, err := ecc.NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Codec: ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep}, Key: &key}

	// A message too large for one 8 KB device under this codec.
	perDevice := core.MaxMessageBytes(8<<10, opts.Codec)
	msg := make([]byte, perDevice*2+100)
	rng.NewSource(1).Bytes(msg)

	striped, err := Stripe(rigs, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(striped.Shards) != 3 {
		t.Fatalf("shards = %d", len(striped.Shards))
	}
	got, err := Gather(rigs, striped, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("striped round trip failed")
	}
}

func TestStripeShardsUseDistinctKeystreams(t *testing.T) {
	// Two shards carrying identical plaintext must produce different
	// payloads (per-device nonces, footnote 4). Encode the same content
	// on two devices and compare their SRAM states.
	rigs := newFleet(t, 2, 4<<10)
	key := stegocrypt.KeyFromPassphrase("nonce-check")
	opts := core.Options{Key: &key}
	per := 1 << 10
	msg := append(bytes.Repeat([]byte{0xAA}, per), bytes.Repeat([]byte{0xAA}, per)...)

	striped, err := Stripe(rigs, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(striped.Shards) != 2 {
		t.Skip("message fit on one device; adjust sizes")
	}
	s0, err := rigs[0].SampleMajorityContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := rigs[1].SampleMajorityContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < per; i++ {
		if s0[i] == s1[i] {
			same++
		}
	}
	if frac := float64(same) / float64(per); frac > 0.05 {
		t.Errorf("shards share %v of payload bytes — keystream reuse", frac)
	}
}

func TestStripeCapacityExceeded(t *testing.T) {
	rigs := newFleet(t, 2, 4<<10)
	msg := make([]byte, 3*(4<<10))
	if _, err := Stripe(rigs, msg, core.Options{}); err == nil {
		t.Fatal("over-capacity stripe accepted")
	}
}

func TestStripeValidation(t *testing.T) {
	if _, err := Stripe(nil, []byte("x"), core.Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	rigs := newFleet(t, 1, 4<<10)
	if _, err := Stripe(rigs, nil, core.Options{}); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := Gather(rigs, nil, core.Options{}); err == nil {
		t.Error("nil stripe result accepted")
	}
}

// twoShardStripe stripes an unkeyed message over two 4 KiB carriers
// under Hamming(7,4) over 7-copy repetition and checks that it gathers
// whole.
func twoShardStripe(t *testing.T) ([]*rig.Rig, *StripeResult, core.Options) {
	t.Helper()
	rep, err := ecc.NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Codec: ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep}}
	rigs := newFleet(t, 2, 4<<10)
	msg := make([]byte, core.MaxMessageBytes(4<<10, opts.Codec)+7)
	rng.NewSource(3).Bytes(msg)
	striped, err := Stripe(rigs, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := GatherContext(context.Background(), rigs, striped, opts)
	if err != nil || !gr.Complete || !bytes.Equal(gr.Message, msg) {
		t.Fatalf("intact stripe: complete=%v, err %v", gr != nil && gr.Complete, err)
	}
	return rigs, striped, opts
}

// TestGatherShardIndexOutOfRange: a shard whose index addresses no
// planned segment is refused before anything is decoded.
func TestGatherShardIndexOutOfRange(t *testing.T) {
	rigs, striped, opts := twoShardStripe(t)
	striped.Shards[1].Index = 5
	if _, err := GatherContext(context.Background(), rigs, striped, opts); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestGatherRefusesStripeWithoutSegmentSizes: the layout comes from the
// stripe's SegmentSizes, never from the shards' own records.
func TestGatherRefusesStripeWithoutSegmentSizes(t *testing.T) {
	rigs, striped, opts := twoShardStripe(t)
	striped.SegmentSizes = nil
	if _, err := GatherContext(context.Background(), rigs, striped, opts); err == nil {
		t.Fatal("stripe without segment sizes accepted")
	}
}

// TestGatherRefusesUnknownCarrier: a shard is decoded on the carrier its
// record names, never on the rig at its slot index; a record naming no
// carrier, or one missing from rigs, is refused.
func TestGatherRefusesUnknownCarrier(t *testing.T) {
	rigs, striped, opts := twoShardStripe(t)
	unnamed := *striped.Shards[1].Record
	unnamed.DeviceID = ""
	striped.Shards[1].Record = &unnamed
	if _, err := GatherContext(context.Background(), rigs, striped, opts); err == nil {
		t.Fatal("shard naming no carrier accepted")
	}

	rigs, striped, opts = twoShardStripe(t)
	other := newFleet(t, 3, 4<<10)[2]
	if _, err := GatherContext(context.Background(), []*rig.Rig{rigs[0], other}, striped, opts); err == nil {
		t.Fatal("shard whose carrier is missing from rigs accepted")
	}
}

func TestStripeSingleDeviceDegeneratesToEncode(t *testing.T) {
	rigs := newFleet(t, 1, 8<<10)
	rep, err := ecc.NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Codec: ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep}}
	msg := []byte("fits easily")
	striped, err := Stripe(rigs, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(striped.Shards) != 1 {
		t.Fatalf("shards = %d", len(striped.Shards))
	}
	got, err := Gather(rigs, striped, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("single-device stripe failed")
	}
}
