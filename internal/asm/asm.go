// Package asm is a two-pass assembler (and disassembler) for the IB32
// instruction set. It consumes the assembly text produced by
// internal/progen — the reproduction of the paper's payload-program
// generator (§4.2) — and emits the flash image the simulated CPU executes.
//
// # Syntax
//
//	; comment, # comment, // comment
//	label:            ; labels may share a line with an instruction
//	    movi  r1, #0x1234
//	    movt  r1, #0x2000
//	    la    r2, payload      ; pseudo: movi+movt of a label address
//	    ldr   r3, [r2, #4]
//	    str   r3, [r1, #0]
//	    addi  r2, r2, #4
//	    cmp   r2, r4
//	    bne   copy
//	wait:
//	    b     wait             ; busy wait (§4.2)
//	payload:
//	    .word 0xdeadbeef, 42
//	    .byte 1, 2, 3
//	    .ascii "hello"
//	    .align 4
//	    .space 16
//
// Numbers accept decimal, 0x hex, and 0b binary; '#' before immediates is
// optional. Mnemonics and registers are case-insensitive.
package asm

import (
	"fmt"
	"strings"

	"invisiblebits/internal/isa"
)

// Program is an assembled flash image.
type Program struct {
	// Image is the little-endian byte image, starting at Origin.
	Image []byte
	// Origin is the load address of Image[0].
	Origin uint32
	// Symbols maps labels to absolute addresses.
	Symbols map[string]uint32
}

// Error is an assembly diagnostic with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble translates source into a Program loaded at origin.
func Assemble(source string, origin uint32) (*Program, error) {
	lines := strings.Split(source, "\n")

	type item struct {
		line  int
		kind  int // 0 instruction, 1 data
		mnem  string
		args  []string
		data  []byte // for data directives, resolved in pass 1 except .word labels
		words []string
		addr  uint32
	}
	const (
		kindIns  = 0
		kindData = 1
	)

	symbols := make(map[string]uint32)
	var items []item
	pc := origin

	// Pass 1: tokenize, record label addresses, compute sizes.
	for ln, raw := range lines {
		line := stripComment(raw)
		for {
			line = strings.TrimSpace(line)
			idx := strings.Index(line, ":")
			if idx < 0 || strings.ContainsAny(line[:idx], " \t\",") {
				break
			}
			label := strings.TrimSpace(line[:idx])
			if label == "" {
				return nil, errf(ln+1, "empty label")
			}
			if !validLabel(label) {
				return nil, errf(ln+1, "invalid label %q", label)
			}
			if _, dup := symbols[label]; dup {
				return nil, errf(ln+1, "duplicate label %q", label)
			}
			symbols[label] = pc
			line = line[idx+1:]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		mnem, rest := splitMnemonic(line)
		mnem = strings.ToLower(mnem)
		it := item{line: ln + 1, mnem: mnem, addr: pc}
		switch {
		case strings.HasPrefix(mnem, "."):
			it.kind = kindData
			size, words, data, err := dataSize(mnem, rest, pc, ln+1)
			if err != nil {
				return nil, err
			}
			it.words = words
			it.data = data
			pc += size
		case mnem == "la":
			// Pseudo-instruction: movi+movt, 8 bytes.
			it.kind = kindIns
			it.args = splitArgs(rest)
			pc += 8
		default:
			it.kind = kindIns
			it.args = splitArgs(rest)
			pc += 4
		}
		items = append(items, it)
	}

	// Pass 2: encode.
	image := make([]byte, 0, pc-origin)
	emit32 := func(w uint32) {
		image = append(image, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	for _, it := range items {
		// Pad to the item's address (alignment directives create gaps).
		for uint32(len(image))+origin < it.addr {
			image = append(image, 0)
		}
		switch {
		case it.kind == kindData && it.mnem == ".word":
			for _, w := range it.words {
				v, err := resolveValue(w, symbols, it.line)
				if err != nil {
					return nil, err
				}
				emit32(v)
			}
		case it.kind == kindData:
			image = append(image, it.data...)
		case it.mnem == "la":
			if len(it.args) != 2 {
				return nil, errf(it.line, "la needs rd, symbol")
			}
			rd, err := parseReg(it.args[0], it.line)
			if err != nil {
				return nil, err
			}
			v, err := resolveValue(it.args[1], symbols, it.line)
			if err != nil {
				return nil, err
			}
			lo := isa.Instruction{Op: isa.OpMOVI, Rd: rd, Imm: int32(v & 0xFFFF)}
			hi := isa.Instruction{Op: isa.OpMOVT, Rd: rd, Imm: int32(v >> 16)}
			for _, ins := range []isa.Instruction{lo, hi} {
				w, err := ins.Encode()
				if err != nil {
					return nil, errf(it.line, "%v", err)
				}
				emit32(w)
			}
		default:
			ins, err := parseInstruction(it.mnem, it.args, it.addr, symbols, it.line)
			if err != nil {
				return nil, err
			}
			w, err := ins.Encode()
			if err != nil {
				return nil, errf(it.line, "%v", err)
			}
			emit32(w)
		}
	}

	return &Program{Image: image, Origin: origin, Symbols: symbols}, nil
}

func stripComment(line string) string {
	for _, marker := range []string{";", "#!", "//"} {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	// '#' starts a comment only when not an immediate prefix (#5, #-2, #0x..).
	for i := 0; i < len(line); i++ {
		if line[i] != '#' {
			continue
		}
		rest := line[i+1:]
		if len(rest) > 0 && (rest[0] == '-' || rest[0] == '+' || rest[0] == '\'' ||
			(rest[0] >= '0' && rest[0] <= '9')) {
			continue
		}
		return line[:i]
	}
	return line
}

func validLabel(s string) bool {
	for i, r := range s {
		ok := r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func splitMnemonic(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i+1:])
}

// splitArgs splits on commas outside brackets and strings.
func splitArgs(rest string) []string {
	if strings.TrimSpace(rest) == "" {
		return nil
	}
	args := make([]string, 0, strings.Count(rest, ",")+1)
	depth := 0
	start := 0
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, strings.TrimSpace(rest[start:i]))
				start = i + 1
			}
		}
	}
	args = append(args, strings.TrimSpace(rest[start:]))
	return args
}
