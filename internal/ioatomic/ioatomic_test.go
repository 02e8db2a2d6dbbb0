package ioatomic

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")

	if err := WriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// Replacement is whole-file: no blend of old and new.
	if err := WriteFile(path, []byte("second, longer contents"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "second, longer contents" {
		t.Fatalf("read back %q, %v", got, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("perm = %v, want 0600", info.Mode().Perm())
	}
}

func TestWriteToFailureLeavesDestinationUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := WriteFile(path, []byte("survivor"), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("producer exploded")
	err := WriteToFS(nil, path, 0o644, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped producer error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "survivor" {
		t.Fatalf("destination disturbed: %q, %v", got, rerr)
	}
	assertNoTempLitter(t, dir)
}

func TestWriteFileLeavesNoTempLitter(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		if err := WriteFile(filepath.Join(dir, "a.bin"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	assertNoTempLitter(t, dir)
}

func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestWriteFileIntoMissingDirFails(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "no-such-dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("expected error writing into a missing directory")
	}
}
