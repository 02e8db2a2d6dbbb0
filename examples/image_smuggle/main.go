// Image smuggle: the Fig. 1 / Fig. 8 demonstration. A bitmap is tiled
// across SRAM as a repetition code and encoded into the analog domain;
// the program renders the power-on state before encoding, after encoding
// (the "negative" of the image, §4.3), and the majority-voted
// reconstruction at increasing copy counts.
package main

import (
	"fmt"
	"log"

	ib "invisiblebits"
	"invisiblebits/internal/imaging"
	"invisiblebits/internal/stats"
)

func main() {
	model, err := ib.Model("MSP432P401")
	if err != nil {
		log.Fatal(err)
	}
	// An 8 KB sample keeps the demo fast; capacity math is unaffected.
	dev, err := ib.NewDeviceSampled(model, "smuggler", 8<<10)
	if err != nil {
		log.Fatal(err)
	}

	glyph := imaging.Glyph()
	packed := glyph.Pack()
	fmt.Println("secret image:")
	fmt.Println(glyph.ASCII())

	// Pre-encoding power-on state (Fig. 1a): random silicon fingerprint.
	pre, err := dev.PowerOn(25)
	if err != nil {
		log.Fatal(err)
	}
	window, err := imaging.Unpack(pre, glyph.W, glyph.H)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("power-on state before encoding (first 32x32 window):")
	fmt.Println(window.ASCII())

	// Tile the image across the whole SRAM — a free repetition code.
	copies := dev.SRAM.Bytes() / len(packed)
	if copies%2 == 0 {
		copies--
	}
	payload := make([]byte, 0, copies*len(packed))
	for i := 0; i < copies; i++ {
		payload = append(payload, packed...)
	}
	full := make([]byte, dev.SRAM.Bytes())
	copy(full, payload)
	if err := dev.SRAM.Write(full); err != nil {
		log.Fatal(err)
	}
	// A short 4-hour soak leaves visible noise, like Fig. 8's 1-copy pane.
	if err := dev.Stress(model.Accelerated(), 4); err != nil {
		log.Fatal(err)
	}

	maj, err := dev.SRAM.CaptureMajority(5, 25)
	if err != nil {
		log.Fatal(err)
	}
	inv := make([]byte, len(maj))
	for i, b := range maj {
		inv[i] = ^b
	}

	for _, n := range []int{1, 3, 7, copies} {
		if n > copies {
			n = copies
		}
		rep, err := ib.Repetition(n)
		if err != nil {
			log.Fatal(err)
		}
		voted, err := rep.Decode(inv[:n*len(packed)], len(packed))
		if err != nil {
			log.Fatal(err)
		}
		img, err := imaging.Unpack(voted, glyph.W, glyph.H)
		if err != nil {
			log.Fatal(err)
		}
		e, err := imaging.ErrorRate(img, glyph)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reconstruction with %d cop%s (pixel error %.2f%%):\n",
			n, map[bool]string{true: "y", false: "ies"}[n == 1], 100*e)
		fmt.Println(img.ASCII())
	}

	single := stats.BitErrorRate(inv[:len(packed)], packed)
	fmt.Printf("single-copy channel error after a 4h soak: %.1f%% — the repetition code absorbs it\n", 100*single)
}
