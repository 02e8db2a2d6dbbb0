// Package progen generates the IB32 assembly programs Invisible Bits
// loads onto target devices. It reproduces the paper's tooling:
//
//   - WriterProgram — "a tool that takes a payload expressed as a binary
//     file, and returns an assembly program that writes that payload to
//     the SRAM. After the program initializes SRAM's state, it busy waits
//     in an infinite loop. The instructions ... run from non-volatile
//     memory on the device, i.e., not the SRAM." (§4.2)
//   - RetainerProgram — the receiver's "program crafted to retain SRAM's
//     power-on state ... a program that boots to an infinite loop, that
//     runs entirely out of Flash memory" (§4.3).
//   - CamouflageProgram — the innocuous firmware loaded after encoding
//     ("the device is removed from the thermal chamber, and a camouflage
//     program is loaded onto the device", §4.2).
//   - WorkloadProgram — the §5.1.4 stress firmware: an in-assembly Galois
//     LFSR that continuously fills SRAM with pseudo-random words.
package progen

import (
	"fmt"
	"strings"

	"invisiblebits/internal/asm"
	"invisiblebits/internal/device"
)

// WriterProgram emits an assembly program that copies payload into SRAM
// at SRAMBase and then busy-waits. The payload is embedded in the
// program's flash image as .word data. Payload length must be a multiple
// of 4 (the device word size); callers pad with zeros if needed.
func WriterProgram(payload []byte) (string, error) {
	if len(payload) == 0 {
		return "", fmt.Errorf("progen: empty payload")
	}
	if len(payload)%4 != 0 {
		return "", fmt.Errorf("progen: payload length %d not word-aligned", len(payload))
	}
	var sb strings.Builder
	sb.WriteString("; Invisible Bits payload writer (auto-generated)\n")
	sb.WriteString("; copies the embedded payload into SRAM, then busy-waits (§4.2)\n")
	fmt.Fprintf(&sb, `
        la   r1, payload       ; source (flash)
        la   r3, payload_end
        movi r2, #0x0000       ; destination (SRAM base)
        movt r2, #0x%04X
copy:   cmp  r1, r3
        beq  done
        ldr  r4, [r1, #0]
        str  r4, [r2, #0]
        addi r1, r1, #4
        addi r2, r2, #4
        b    copy
done:
wait:   b    wait
payload:
`, device.SRAMBase>>16)
	writeWords(&sb, payload)
	sb.WriteString("payload_end:\n")
	return sb.String(), nil
}

// writeWords emits payload as .word lines of eight little-endian words,
// each written 0x%08X, formatted by hand into one reused line buffer
// after growing the builder once to the exact output size.
func writeWords(sb *strings.Builder, payload []byte) {
	const (
		perLine = 8
		indent  = "        .word "
		hex     = "0123456789ABCDEF"
	)
	words := len(payload) / 4
	lines := (words + perLine - 1) / perLine
	// Per line: the indent and a newline; per word: 0x and eight
	// digits, and ", " before every word but a line's first.
	sb.Grow(lines*(len(indent)+1) + words*10 + (words-lines)*2)
	var buf [len(indent) + perLine*12]byte
	for i := 0; i < len(payload); i += 4 * perLine {
		line := append(buf[:0], indent...)
		for j := 0; j < perLine && i+4*j < len(payload); j++ {
			if j > 0 {
				line = append(line, ", "...)
			}
			off := i + 4*j
			w := uint32(payload[off]) | uint32(payload[off+1])<<8 |
				uint32(payload[off+2])<<16 | uint32(payload[off+3])<<24
			line = append(line, '0', 'x')
			for shift := 28; shift >= 0; shift -= 4 {
				line = append(line, hex[w>>uint(shift)&0xF])
			}
		}
		line = append(line, '\n')
		sb.Write(line)
	}
}

// RetainerProgram returns firmware that never touches SRAM, preserving
// the power-on state for debugger readout (§4.3).
func RetainerProgram() string {
	return `; Invisible Bits power-on state retainer (§4.3)
; boots straight into an infinite loop; never reads or writes SRAM
wait:   b    wait
`
}

// CamouflageProgram returns a plausible-looking application: a duty-cycle
// counter that keeps a few loop variables in SRAM. It makes the device
// look like an ordinary product and demonstrates that ordinary firmware
// activity coexists with the analog-domain message (digital plausible
// deniability + erase/write tolerance, §1).
func CamouflageProgram() string {
	return fmt.Sprintf(`; camouflage firmware: periodic activity counter
        movi r1, #0x0000       ; SRAM scratch area
        movt r1, #0x%04X
        movi r2, #0            ; tick counter
        movi r3, #100          ; duty period
        movi r6, #0
loop:   addi r2, r2, #1
        str  r2, [r1, #0]      ; publish tick
        cmp  r2, r3
        blt  loop
        str  r6, [r1, #4]      ; roll over; blink state
        movi r2, #0
        b    loop
`, device.SRAMBase>>16)
}

// WorkloadProgram returns the §5.1.4 normal-operation firmware: a 32-bit
// Galois LFSR (taps 0xA3000000, matching internal/rng.LFSR32) that
// streams pseudo-random words across the whole SRAM forever.
func WorkloadProgram(sramBytes int) (string, error) {
	if sramBytes <= 0 || sramBytes%4 != 0 {
		return "", fmt.Errorf("progen: bad SRAM size %d", sramBytes)
	}
	end := uint32(device.SRAMBase) + uint32(sramBytes)
	return fmt.Sprintf(`; normal-operation workload (§5.1.4): LFSR writes over all of SRAM
        movi r1, #1            ; lfsr state
        movi r5, #1            ; constant 1
        movi r6, #0x0000       ; taps 0xA3000000
        movt r6, #0xA300
outer:  movi r2, #0x0000       ; dst = SRAM base
        movt r2, #0x%04X
        movi r3, #0x%04X       ; dst end
        movt r3, #0x%04X
fill:   and  r7, r1, r5        ; lsb
        lsr  r1, r1, r5        ; state >>= 1
        cmp  r7, r5
        bne  nofb
        xor  r1, r1, r6        ; state ^= taps
nofb:   str  r1, [r2, #0]
        addi r2, r2, #4
        cmp  r2, r3
        bne  fill
        b    outer
`, device.SRAMBase>>16, end&0xFFFF, end>>16), nil
}

// Assemble is a convenience that assembles generated source at the flash
// base.
func Assemble(source string) (*asm.Program, error) {
	return asm.Assemble(source, device.FlashBase)
}
