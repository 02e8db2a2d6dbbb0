// Package ioatomic writes durable artifacts atomically and seals them
// against silent corruption. The encoding half of an Invisible Bits
// campaign produces files whose loss or corruption is unrecoverable at
// any price: a device image is the serialized analog state of a chip
// that soaked for tens of simulated hours in the thermal chamber, and a
// record file is the only copy of the pre-shared decode parameters. A
// bare os.WriteFile torn by a crash or power loss leaves a half-written
// file under the final name — the reader then fails (best case) or
// decodes garbage (worst case).
//
// WriteFile and WriteToFS follow the classic safe-save protocol:
//
//  1. write the full contents to a temp file in the destination
//     directory (same filesystem, so the rename below is atomic),
//  2. fsync the temp file, so the data is on stable storage before the
//     name appears,
//  3. rename the temp file over the destination (POSIX rename replaces
//     atomically: readers see the old file or the new, never a mix),
//  4. fsync the directory, so the rename itself survives power loss.
//
// On any failure the temp file is removed and the destination is
// untouched.
//
// Atomicity protects against crashes; it does nothing against a disk
// that later returns different bytes than it stored. Seal/Unseal add a
// sha256 footer (payload ‖ sha256(payload) ‖ "IBSEAL01") so every read
// can prove the bytes are the ones written. Files written before
// sealing existed carry no magic and are accepted as legacy-unsealed —
// old state dirs keep loading.
//
// All entry points come in pairs: the original path-based form over the
// real filesystem, and an FS form over the storage seam so fault-
// injection tests can make the disk lie.
package ioatomic

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"invisiblebits/internal/storage"
)

// ErrSealMismatch marks a sealed file whose payload no longer hashes to
// its footer — the disk changed the bytes. Test with errors.Is.
var ErrSealMismatch = errors.New("ioatomic: seal digest mismatch (file corrupted at rest)")

// tempMarker is in the name of every safe-save temp file.
const tempMarker = ".tmp"

// sealMagic terminates every sealed file. The footer layout is
// [payload][sha256(payload), 32 bytes][magic, 8 bytes]; putting the
// magic last lets a reader classify a file from its tail alone.
const sealMagic = "IBSEAL01"

// sealFooterLen is the total footer size appended to the payload.
const sealFooterLen = sha256.Size + len(sealMagic)

// WriteFile atomically replaces path with data. The file is durable
// (contents and directory entry fsynced) before WriteFile returns nil.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(nil, path, data, perm)
}

// WriteFileFS is WriteFile over an explicit filesystem seam (nil means
// the real filesystem).
func WriteFileFS(fsys storage.FS, path string, data []byte, perm os.FileMode) error {
	return WriteToFS(fsys, path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteToFS is WriteFileFS for streaming producers: write is handed the
// temp file, and the result replaces path atomically only if write and
// every fsync succeed.
func WriteToFS(fsys storage.FS, path string, perm os.FileMode, write func(w io.Writer) error) error {
	fs := storage.Default(fsys)
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := fs.CreateTemp(dir, base+tempMarker+"*")
	if err != nil {
		return fmt.Errorf("ioatomic: %w", err)
	}
	tmpName := tmp.Name()
	// On any failure below, remove the temp file; Remove after a
	// successful rename fails harmlessly (the name is gone).
	defer fs.Remove(tmpName)

	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ioatomic: write %s: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("ioatomic: chmod %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ioatomic: fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ioatomic: close %s: %w", path, err)
	}
	if err := fs.Rename(tmpName, path); err != nil {
		return fmt.Errorf("ioatomic: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("ioatomic: fsync dir %s: %w", dir, err)
	}
	return nil
}

// Seal appends the integrity footer to payload: sha256 over the payload
// plus the trailing magic. Readers use Unseal.
func Seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(payload)+sealFooterLen)
	out = append(out, payload...)
	out = append(out, sum[:]...)
	return append(out, sealMagic...)
}

// Unseal verifies and strips the integrity footer. sealed reports
// whether the file carried a footer at all: data without the trailing
// magic is a legacy unsealed file and is returned as-is with sealed
// false and no error — pre-footer state dirs keep loading. A footer
// whose digest does not match returns ErrSealMismatch.
func Unseal(data []byte) (payload []byte, sealed bool, err error) {
	if len(data) < sealFooterLen || !bytes.HasSuffix(data, []byte(sealMagic)) {
		return data, false, nil
	}
	body := data[:len(data)-sealFooterLen]
	want := data[len(data)-sealFooterLen : len(data)-len(sealMagic)]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], want) {
		return nil, true, fmt.Errorf("%w: %d-byte payload", ErrSealMismatch, len(body))
	}
	return body, true, nil
}

// WriteFileSealed atomically replaces path with data plus the sha256
// integrity footer.
func WriteFileSealed(fsys storage.FS, path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(fsys, path, Seal(data), perm)
}

// WriteToSealed is WriteToFS with the integrity footer: write streams the
// payload, and the footer is computed and appended before the atomic
// rename.
func WriteToSealed(fsys storage.FS, path string, perm os.FileMode, write func(w io.Writer) error) error {
	return WriteToFS(fsys, path, perm, func(w io.Writer) error {
		h := sha256.New()
		if err := write(io.MultiWriter(w, h)); err != nil {
			return err
		}
		if _, err := w.Write(h.Sum(nil)); err != nil {
			return err
		}
		_, err := io.WriteString(w, sealMagic)
		return err
	})
}

// ReadFileSealed reads path and verifies/strips its integrity footer.
// Legacy files without a footer are returned whole with sealed false.
func ReadFileSealed(fsys storage.FS, path string) (payload []byte, sealed bool, err error) {
	data, err := storage.Default(fsys).ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	payload, sealed, err = Unseal(data)
	if err != nil {
		return nil, sealed, fmt.Errorf("ioatomic: %s: %w", path, err)
	}
	return payload, sealed, nil
}

// Temps lists the safe-save temp files in dir (base names containing
// ".tmp"): the litter a process leaves when it dies between CreateTemp
// and rename. Directories are never listed.
func Temps(fsys storage.FS, dir string) ([]string, error) {
	ents, err := storage.Default(fsys).ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ioatomic: list temps in %s: %w", dir, err)
	}
	var names []string
	for _, ent := range ents {
		if !ent.IsDir() && strings.Contains(ent.Name(), tempMarker) {
			names = append(names, ent.Name())
		}
	}
	return names, nil
}
