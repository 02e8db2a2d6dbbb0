package sram_test

import (
	"fmt"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/sram"
)

// TestCatalogMismatchEquivalence holds the mismatch plane of a fresh
// device of every catalog model, at its full geometry (the BCM2837's
// 768 KiB included), and of 20 MSP432P401 serials to the two-pass
// oracle bit for bit. On a host with AVX-512 the planes come from the
// synthesis kernels, elsewhere from the scalar path.
func TestCatalogMismatchEquivalence(t *testing.T) {
	type board struct {
		model  device.Model
		serial string
	}
	var boards []board
	for _, m := range device.Catalog {
		boards = append(boards, board{m, "catalog-plane"})
	}
	msp432, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		boards = append(boards, board{msp432, fmt.Sprintf("plane-%02d", i)})
	}
	for _, b := range boards {
		t.Run(b.model.Name+"/"+b.serial, func(t *testing.T) {
			t.Parallel()
			d, err := device.New(b.model, b.serial)
			if err != nil {
				t.Fatal(err)
			}
			if i := sram.ReferencePlaneDiff(d.SRAM); i >= 0 {
				t.Fatalf("%dx%d: cell %d differs from the two-pass oracle", d.SRAM.Rows(), d.SRAM.Cols(), i)
			}
		})
	}
}
