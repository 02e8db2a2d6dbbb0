package flash

import "fmt"

// Store is the digital side of a NOR Flash: page erase sets a page to
// 0xFF, and programming can only clear bits (1→0). It is all a device's
// firmware store needs; Array adds the analog side channels on top.
type Store struct {
	pageBytes int
	data      []byte
}

// NewStore builds a fully erased store of pages pages of pageBytes
// bytes each.
func NewStore(pageBytes, pages int) (*Store, error) {
	if pageBytes <= 0 || pages <= 0 {
		return nil, fmt.Errorf("flash: non-positive geometry %dx%d", pages, pageBytes)
	}
	s := &Store{pageBytes: pageBytes, data: make([]byte, pageBytes*pages)}
	for i := range s.data {
		s.data[i] = 0xFF // erased state reads all-1s
	}
	return s, nil
}

// Bytes returns the capacity in bytes.
func (s *Store) Bytes() int { return len(s.data) }

// PageBytes returns the erase-page size in bytes.
func (s *Store) PageBytes() int { return s.pageBytes }

func (s *Store) checkRange(off, n int) error {
	if off < 0 || off+n > len(s.data) {
		return fmt.Errorf("flash: access [%d,%d) out of range of %d bytes", off, off+n, len(s.data))
	}
	return nil
}

func (s *Store) checkPage(page int) error {
	if page < 0 || page >= len(s.data)/s.pageBytes {
		return fmt.Errorf("flash: page %d out of range", page)
	}
	return nil
}

// Read copies n bytes starting at off.
func (s *Store) Read(off, n int) ([]byte, error) {
	if err := s.checkRange(off, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, s.data[off:off+n])
	return out, nil
}

// ByteAt returns a single byte.
func (s *Store) ByteAt(off int) (byte, error) {
	if err := s.checkRange(off, 1); err != nil {
		return 0, err
	}
	return s.data[off], nil
}

// ErasePage resets a page to all-1s.
func (s *Store) ErasePage(page int) error {
	if err := s.checkPage(page); err != nil {
		return err
	}
	base := page * s.pageBytes
	for i := base; i < base+s.pageBytes; i++ {
		s.data[i] = 0xFF
	}
	return nil
}

// Program writes data at off with NOR semantics: only 1→0 transitions
// take effect, and programming a 0 bit again is a no-op.
func (s *Store) Program(off int, data []byte) error {
	if err := s.checkRange(off, len(data)); err != nil {
		return err
	}
	for i, b := range data {
		s.programByte(off+i, b)
	}
	return nil
}

// programByte ANDs b into the byte at off and returns the bits it
// cleared (1→0).
func (s *Store) programByte(off int, b byte) (cleared byte) {
	old := s.data[off]
	s.data[off] = old & b
	return old &^ b
}
