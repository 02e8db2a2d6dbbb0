package ioatomic

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/storage"
)

func TestSealRoundTrip(t *testing.T) {
	payload := []byte("the record file is unrecoverable at any price")
	sealed := Seal(payload)
	got, wasSealed, err := Unseal(sealed)
	if err != nil || !wasSealed {
		t.Fatalf("Unseal: sealed=%v err=%v", wasSealed, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mangled: %q", got)
	}

	// Any single flipped bit — payload or footer — must be detected.
	for _, pos := range []int{0, len(payload) / 2, len(payload), len(sealed) - 10} {
		bad := append([]byte(nil), sealed...)
		bad[pos] ^= 0x40
		if _, _, err := Unseal(bad); !errors.Is(err, ErrSealMismatch) {
			t.Fatalf("flip at %d: err = %v, want ErrSealMismatch", pos, err)
		}
	}
}

// TestUnsealLegacyPassthrough: files written before the seal footer
// existed have no magic — they pass through unverified rather than
// failing, so old state directories still load.
func TestUnsealLegacyPassthrough(t *testing.T) {
	for _, legacy := range [][]byte{nil, []byte("x"), []byte("an old unsealed artifact, longer than a footer......")} {
		got, sealed, err := Unseal(legacy)
		if err != nil || sealed {
			t.Fatalf("legacy %q: sealed=%v err=%v", legacy, sealed, err)
		}
		if !bytes.Equal(got, legacy) {
			t.Fatalf("legacy payload mangled: %q", got)
		}
	}
}

func TestWriteReadFileSealed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	payload := []byte(`{"codec":"paper"}`)
	if err := WriteFileSealed(nil, path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, sealed, err := ReadFileSealed(nil, path)
	if err != nil || !sealed || !bytes.Equal(got, payload) {
		t.Fatalf("read back: sealed=%v err=%v payload=%q", sealed, err, got)
	}

	// Rot one byte at rest; the read must fail loudly, not return junk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFileSealed(nil, path); !errors.Is(err, ErrSealMismatch) {
		t.Fatalf("rotted read = %v, want ErrSealMismatch", err)
	}
}

func TestTempsListsOnlyTempFiles(t *testing.T) {
	dir := t.TempDir()
	keep := []string{"result.json", "journal.jsonl", "slot-0.img"}
	litter := []string{"result.json.tmp123", "spec.json.tmp9", "x.tmp"}
	for _, n := range append(append([]string{}, keep...), litter...) {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Directories are never listed, even with .tmp in the name.
	if err := os.Mkdir(filepath.Join(dir, "sub.tmpdir"), 0o755); err != nil {
		t.Fatal(err)
	}

	got, err := Temps(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, litter) {
		t.Fatalf("listed %v, want the temp files %v", got, litter)
	}
	if _, err := Temps(nil, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("listing a missing directory succeeded")
	}
}

// TestWriteToFailurePaths drives every failure point of the atomic
// write protocol — create, write, chmod, fsync, close, rename, dir
// fsync — and checks the two invariants that make it atomic: the
// destination never holds a torn result, and no temp litter survives.
func TestWriteToFailurePaths(t *testing.T) {
	boom := errors.New("injected storage failure")
	steps := []struct {
		op faults.StorageOp
		// renamed: the failure happens after the rename, so the new
		// content legitimately reaches the destination even though
		// WriteTo reports the (durability) error.
		renamed bool
	}{
		{op: faults.StorageCreate},
		{op: faults.StorageWrite},
		{op: faults.StorageChmod},
		{op: faults.StorageSync},
		{op: faults.StorageClose},
		{op: faults.StorageRename},
		{op: faults.StorageSyncDir, renamed: true},
	}
	for _, step := range steps {
		t.Run(string(step.op), func(t *testing.T) {
			dir := t.TempDir()
			fsys := storage.NewFaultFS(nil, faults.StorageProfile{})
			path := filepath.Join(dir, "data.json")
			if err := WriteFileFS(fsys, path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}

			// The dir-fsync site is the directory path, not the file.
			substr := "data.json"
			if step.op == faults.StorageSyncDir {
				substr = dir
			}
			fsys.FailNth(step.op, substr, 1, boom)
			err := WriteToFS(fsys, path, 0o644, func(w io.Writer) error {
				_, werr := w.Write([]byte("new"))
				return werr
			})
			if !errors.Is(err, boom) {
				t.Fatalf("WriteToFS = %v, want the injected failure", err)
			}

			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("destination vanished: %v", rerr)
			}
			if !step.renamed && string(got) != "old" {
				t.Fatalf("failed write tore the destination: %q", got)
			}
			if step.renamed && string(got) != "new" {
				t.Fatalf("post-rename failure left %q", got)
			}

			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.Contains(e.Name(), ".tmp") {
					t.Fatalf("temp litter survived the %s failure: %s", step.op, e.Name())
				}
			}
		})
	}
}
