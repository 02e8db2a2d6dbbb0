package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stegocrypt"
)

// Ownership and isolation of the pooled decode arena: decodes with a nil
// Options.Arena share arenas through a package pool, so the messages
// they return must be copies, and one caller's keys, device IDs and
// messages must never leak into another's result.

// pooledCarrier is one encoded 4 KiB MSP432P401 rig.
type pooledCarrier struct {
	r    *rig.Rig
	rec  *Record
	opts Options
	msg  []byte
}

// encodePooledCarrier encodes a 96-byte message, seeded by serial, under
// key (nil: plaintext with a CRC digest; otherwise AES with an HMAC
// digest).
func encodePooledCarrier(t *testing.T, serial string, key *stegocrypt.Key) pooledCarrier {
	t.Helper()
	r := newRig(t, "MSP432P401", serial, 4<<10)
	opts := Options{Codec: paperCodec(t), Key: key}
	msg := make([]byte, 96)
	rng.NewSource(uint64(crc32.ChecksumIEEE([]byte(serial)))).Bytes(msg)
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pooledCarrier{r, rec, opts, msg}
}

// TestPooledArenaMessageOwnership: a message returned by a pooled
// decode is the caller's — the next decode of a different carrier,
// which reuses the same pooled scratch, leaves it byte-unchanged.
func TestPooledArenaMessageOwnership(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("own-a")
	a := encodePooledCarrier(t, "own-a", &key)
	b := encodePooledCarrier(t, "own-b", nil)
	ctx := context.Background()

	decoders := []struct {
		name   string
		decode func(c pooledCarrier) ([]byte, error)
	}{
		{"DecodeAdaptive", func(c pooledCarrier) ([]byte, error) {
			msg, _, err := DecodeAdaptive(ctx, c.r, c.rec, AdaptiveOptions{Options: c.opts})
			return msg, err
		}},
		{"DecodeContext", func(c pooledCarrier) ([]byte, error) {
			return DecodeContext(ctx, c.r, c.rec, c.opts)
		}},
		{"DecodeContext/soft", func(c pooledCarrier) ([]byte, error) {
			o := c.opts
			o.Soft = true
			return DecodeContext(ctx, c.r, c.rec, o)
		}},
	}
	for _, d := range decoders {
		t.Run(d.name, func(t *testing.T) {
			gotA, err := d.decode(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotA, a.msg) {
				t.Fatal("first decode returned the wrong message")
			}
			gotB, err := d.decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotB, b.msg) {
				t.Fatal("second decode returned the wrong message")
			}
			if !bytes.Equal(gotA, a.msg) {
				t.Fatal("the next decode overwrote a message already returned to the caller")
			}
		})
	}
}

// TestPooledArenaConcurrentIsolation: carriers with different keys and
// device IDs — HMAC and CRC records, two sharing a key — decoded through
// the shared pool all get exact plaintexts, round-robin on one goroutine
// (each decode reuses the arena the previous carrier just returned) and
// from concurrent goroutines; and a wrong key afterwards still fails the
// digest. The (key, device)-keyed keystream and MAC caches never serve
// one caller's stream to another.
func TestPooledArenaConcurrentIsolation(t *testing.T) {
	keyA := stegocrypt.KeyFromPassphrase("iso-a")
	keyB := stegocrypt.KeyFromPassphrase("iso-b")
	carriers := []pooledCarrier{
		encodePooledCarrier(t, "iso-1", &keyA),
		encodePooledCarrier(t, "iso-2", &keyA),
		encodePooledCarrier(t, "iso-3", &keyB),
		encodePooledCarrier(t, "iso-4", nil),
	}
	ctx := context.Background()
	reveal := func(c pooledCarrier) error {
		got, _, err := DecodeAdaptive(ctx, c.r, c.rec, AdaptiveOptions{Options: c.opts})
		if err == nil && !bytes.Equal(got, c.msg) {
			err = errors.New("wrong plaintext from DecodeAdaptive")
		}
		if err == nil {
			got, err = DecodeContext(ctx, c.r, c.rec, c.opts)
			if err == nil && !bytes.Equal(got, c.msg) {
				err = errors.New("wrong plaintext from DecodeContext")
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.rec.DeviceID, err)
		}
		return nil
	}

	for round := 0; round < 2; round++ {
		for _, c := range carriers {
			if err := reveal(c); err != nil {
				t.Fatalf("round-robin round %d: %v", round, err)
			}
		}
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(carriers))
	for _, c := range carriers {
		wg.Add(1)
		go func(c pooledCarrier) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := reveal(c); err != nil {
					errs <- fmt.Errorf("concurrent round %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The pool is now warm with keyA and keyB streams; a wrong key must
	// still derive its own stream and fail verification.
	wrong := stegocrypt.KeyFromPassphrase("iso-wrong")
	c := carriers[0]
	o := c.opts
	o.Key = &wrong
	if _, _, err := DecodeAdaptive(ctx, c.r, c.rec, AdaptiveOptions{Options: o}); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("wrong key: err = %v, want ErrDigestMismatch", err)
	}
	// DecodeContext does not verify: the wrong key must yield garbage.
	if got, err := DecodeContext(ctx, c.r, c.rec, o); err == nil && bytes.Equal(got, c.msg) {
		t.Fatal("wrong key recovered the message")
	}
}

// TestPooledDecodeAdaptiveAllocBound: a warm reveal through the pooled
// arena allocates fewer bytes than the SRAM has cells, at any
// GOMAXPROCS (the capture kernel's worker pool dispatches without
// allocating). The per-stage path it replaced allocated two uint16
// vote planes per burst — at least 4 bytes per cell.
func TestPooledDecodeAdaptiveAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and drops pooled arenas; the bound runs without -race")
	}
	key := stegocrypt.KeyFromPassphrase("alloc-bound")
	c := encodePooledCarrier(t, "alloc-bound", &key)
	ctx := context.Background()
	aopts := AdaptiveOptions{Options: c.opts}
	reveal := func() {
		got, _, err := DecodeAdaptive(ctx, c.r, c.rec, aopts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.msg) {
			t.Fatal("wrong plaintext")
		}
	}
	reveal() // warm the pool
	const reveals = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reveals; i++ {
		reveal()
	}
	runtime.ReadMemStats(&after)
	perReveal := (after.TotalAlloc - before.TotalAlloc) / reveals
	cells := uint64(c.r.Device().SRAM.Cells())
	t.Logf("%d bytes allocated per reveal, %d cells", perReveal, cells)
	if perReveal >= cells {
		t.Fatalf("warm pooled reveal allocates %d bytes, want < %d (one per SRAM cell)", perReveal, cells)
	}
}

// TestArenaRoundRobinReveals: one caller-owned arena revealing three
// carriers in turn, so that every encrypted reveal misses the arena's
// one-entry keystream cache and regenerates the stream in place,
// returns what a fresh arena per reveal returns on twin carriers: the
// same messages and the same reports, adaptive and soft.
func TestArenaRoundRobinReveals(t *testing.T) {
	keyA := stegocrypt.KeyFromPassphrase("rr-a")
	keyB := stegocrypt.KeyFromPassphrase("rr-b")
	carriers := func() []pooledCarrier {
		return []pooledCarrier{
			encodePooledCarrier(t, "rr-0", &keyA),
			encodePooledCarrier(t, "rr-1", &keyB),
			encodePooledCarrier(t, "rr-2", &keyA),
		}
	}
	shared, fresh := carriers(), carriers()
	arena := NewDecodeArena()
	ctx := context.Background()
	reveal := func(c pooledCarrier, a *DecodeArena, soft bool) ([]byte, *DecodeReport) {
		t.Helper()
		opts := c.opts
		opts.Arena = a
		if soft {
			opts.Soft = true
			msg, err := DecodeContext(ctx, c.r, c.rec, opts)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Clone(msg), nil
		}
		msg, rep, err := DecodeAdaptive(ctx, c.r, c.rec, AdaptiveOptions{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(msg), rep
	}
	for round := 0; round < 4; round++ {
		soft := round%2 == 1
		for i := range shared {
			got, gotRep := reveal(shared[i], arena, soft)
			want, wantRep := reveal(fresh[i], NewDecodeArena(), soft)
			if !bytes.Equal(got, want) || !bytes.Equal(got, shared[i].msg) {
				t.Fatalf("round %d, carrier %d: the shared arena's message differs", round, i)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("round %d, carrier %d: reports differ:\n%+v\n%+v", round, i, gotRep, wantRep)
			}
		}
	}
}

// TestArenaKeystreamMissInPlace: on a warm arena a keystream miss
// regenerates the stream into the arena's own buffer: the stream equals
// StreamXOR's, the buffer is the same one, and no buffer of the
// stream's length is allocated (crypto/cipher allocates its AES and
// CTR state per stream, about a kilobyte). A failed fill leaves no
// cache entry behind.
func TestArenaKeystreamMissInPlace(t *testing.T) {
	const n = 64 << 10
	keys := []stegocrypt.Key{stegocrypt.KeyFromPassphrase("ks-a"), stegocrypt.KeyFromPassphrase("ks-b")}
	devs := []string{"dev-a", "dev-b"}
	a := NewDecodeArena()
	for i := range keys { // warm: the buffer has grown to n
		if _, err := a.keystream(keys[i], devs[i], n); err != nil {
			t.Fatal(err)
		}
	}
	buf := &a.ks[0]
	const misses = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < misses; i++ {
		if _, err := a.keystream(keys[i%2], devs[i%2], n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / misses; perMiss >= n/16 {
		t.Fatalf("a warm keystream miss allocates %d bytes, want < %d: the stream is not regenerated in place", perMiss, n/16)
	}
	if &a.ks[0] != buf {
		t.Fatal("a warm miss replaced the arena's keystream buffer")
	}
	for i := range keys {
		got, err := a.keystream(keys[i], devs[i], n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stegocrypt.StreamXOR(keys[i], devs[i], make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d: regenerated keystream differs from StreamXOR's", i)
		}
	}
	if _, err := a.keystream(keys[0], "", n); err == nil {
		t.Fatal("an empty device ID filled the keystream")
	}
	if a.ksValid {
		t.Fatal("a failed fill left a cache entry")
	}
}
