package asm

import (
	"fmt"
	"strconv"
	"strings"

	"invisiblebits/internal/isa"
)

var mnemonicOps = map[string]isa.Opcode{
	"nop": isa.OpNOP, "halt": isa.OpHALT, "movi": isa.OpMOVI,
	"movt": isa.OpMOVT, "mov": isa.OpMOV, "add": isa.OpADD,
	"sub": isa.OpSUB, "and": isa.OpAND, "orr": isa.OpORR,
	"xor": isa.OpXOR, "lsl": isa.OpLSL, "lsr": isa.OpLSR,
	"addi": isa.OpADDI, "ldr": isa.OpLDR, "str": isa.OpSTR,
	"ldrb": isa.OpLDRB, "strb": isa.OpSTRB, "cmp": isa.OpCMP,
	"b": isa.OpB, "beq": isa.OpBEQ, "bne": isa.OpBNE,
	"blt": isa.OpBLT, "bge": isa.OpBGE, "bl": isa.OpBL, "ret": isa.OpRET,
}

func parseReg(tok string, line int) (uint8, error) {
	t := strings.ToLower(strings.TrimSpace(tok))
	if !strings.HasPrefix(t, "r") {
		return 0, errf(line, "expected register, got %q", tok)
	}
	n, err := strconv.Atoi(t[1:])
	if err != nil || n < 0 || n >= isa.NumRegisters {
		return 0, errf(line, "bad register %q", tok)
	}
	return uint8(n), nil
}

// parseNumber accepts decimal, hex (0x), binary (0b), optional leading '#'
// and sign, and character literals 'c'.
func parseNumber(tok string, line int) (int64, error) {
	t := strings.TrimSpace(tok)
	t = strings.TrimPrefix(t, "#")
	if len(t) >= 3 && t[0] == '\'' && t[len(t)-1] == '\'' {
		un, err := strconv.Unquote(t)
		if err != nil || len(un) != 1 {
			return 0, errf(line, "bad character literal %q", tok)
		}
		return int64(un[0]), nil
	}
	neg := false
	if strings.HasPrefix(t, "-") {
		neg, t = true, t[1:]
	} else if strings.HasPrefix(t, "+") {
		t = t[1:]
	}
	base := 10
	if len(t) >= 2 && t[0] == '0' {
		switch t[1] {
		case 'x', 'X':
			base, t = 16, t[2:]
		case 'b', 'B':
			base, t = 2, t[2:]
		}
	}
	v, err := strconv.ParseUint(t, base, 64)
	if err != nil {
		return 0, errf(line, "bad number %q", tok)
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, nil
}

// resolveValue resolves a token that may be a label or a number to a
// 32-bit value.
func resolveValue(tok string, symbols map[string]uint32, line int) (uint32, error) {
	t := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(tok), "#"))
	// validLabel never lets a label start with a digit, so a numeric
	// token skips the symbol lookup.
	if t == "" || t[0] < '0' || t[0] > '9' {
		if addr, ok := symbols[t]; ok {
			return addr, nil
		}
	}
	n, err := parseNumber(tok, line)
	if err != nil {
		return 0, errf(line, "unknown symbol or bad number %q", tok)
	}
	return uint32(n), nil
}

// parseMem parses "[rN, #off]" or "[rN]".
func parseMem(tok string, line int) (uint8, int32, error) {
	t := strings.TrimSpace(tok)
	if !strings.HasPrefix(t, "[") || !strings.HasSuffix(t, "]") {
		return 0, 0, errf(line, "expected memory operand, got %q", tok)
	}
	inner := strings.TrimSpace(t[1 : len(t)-1])
	parts := strings.SplitN(inner, ",", 2)
	reg, err := parseReg(parts[0], line)
	if err != nil {
		return 0, 0, err
	}
	var off int64
	if len(parts) == 2 {
		off, err = parseNumber(parts[1], line)
		if err != nil {
			return 0, 0, err
		}
	}
	return reg, int32(off), nil
}

func parseInstruction(mnem string, args []string, addr uint32,
	symbols map[string]uint32, line int) (isa.Instruction, error) {
	op, ok := mnemonicOps[mnem]
	if !ok {
		return isa.Instruction{}, errf(line, "unknown mnemonic %q", mnem)
	}
	ins := isa.Instruction{Op: op}
	need := func(n int) error {
		if len(args) != n {
			return errf(line, "%s expects %d operands, got %d", mnem, n, len(args))
		}
		return nil
	}
	var err error
	switch op {
	case isa.OpNOP, isa.OpHALT, isa.OpRET:
		return ins, need(0)

	case isa.OpMOVI, isa.OpMOVT:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rd, err = parseReg(args[0], line); err != nil {
			return ins, err
		}
		n, err := parseNumber(args[1], line)
		if err != nil {
			return ins, err
		}
		ins.Imm = int32(n)
		return ins, nil

	case isa.OpMOV:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rd, err = parseReg(args[0], line); err != nil {
			return ins, err
		}
		ins.Rs, err = parseReg(args[1], line)
		return ins, err

	case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpORR, isa.OpXOR, isa.OpLSL, isa.OpLSR:
		if err = need(3); err != nil {
			return ins, err
		}
		if ins.Rd, err = parseReg(args[0], line); err != nil {
			return ins, err
		}
		if ins.Rs, err = parseReg(args[1], line); err != nil {
			return ins, err
		}
		ins.Rt, err = parseReg(args[2], line)
		return ins, err

	case isa.OpADDI:
		if err = need(3); err != nil {
			return ins, err
		}
		if ins.Rd, err = parseReg(args[0], line); err != nil {
			return ins, err
		}
		if ins.Rs, err = parseReg(args[1], line); err != nil {
			return ins, err
		}
		n, err := parseNumber(args[2], line)
		if err != nil {
			return ins, err
		}
		ins.Imm = int32(n)
		return ins, nil

	case isa.OpLDR, isa.OpLDRB:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rd, err = parseReg(args[0], line); err != nil {
			return ins, err
		}
		ins.Rs, ins.Imm, err = parseMem(args[1], line)
		return ins, err

	case isa.OpSTR, isa.OpSTRB:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rt, err = parseReg(args[0], line); err != nil {
			return ins, err
		}
		ins.Rs, ins.Imm, err = parseMem(args[1], line)
		return ins, err

	case isa.OpCMP:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rs, err = parseReg(args[0], line); err != nil {
			return ins, err
		}
		ins.Rt, err = parseReg(args[1], line)
		return ins, err

	case isa.OpB, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBL:
		if err = need(1); err != nil {
			return ins, err
		}
		target, ok := symbols[strings.TrimSpace(args[0])]
		if !ok {
			n, err := parseNumber(args[0], line)
			if err != nil {
				return ins, errf(line, "unknown branch target %q", args[0])
			}
			ins.Imm = int32(n) // raw word offset
			return ins, nil
		}
		delta := int64(target) - int64(addr) - 4
		if delta%4 != 0 {
			return ins, errf(line, "misaligned branch target %q", args[0])
		}
		ins.Imm = int32(delta / 4)
		return ins, nil
	}
	return ins, errf(line, "unhandled mnemonic %q", mnem)
}

// dataSize computes the byte size of a data directive in pass 1 and
// returns pending .word tokens (labels resolve in pass 2) or final bytes.
func dataSize(mnem, rest string, pc uint32, line int) (size uint32, words []string, data []byte, err error) {
	switch mnem {
	case ".word":
		words = splitArgs(rest)
		if len(words) == 0 {
			return 0, nil, nil, errf(line, ".word needs at least one value")
		}
		return uint32(4 * len(words)), words, nil, nil
	case ".byte":
		toks := splitArgs(rest)
		if len(toks) == 0 {
			return 0, nil, nil, errf(line, ".byte needs at least one value")
		}
		for _, tk := range toks {
			n, err := parseNumber(tk, line)
			if err != nil {
				return 0, nil, nil, err
			}
			if n < -128 || n > 255 {
				return 0, nil, nil, errf(line, "byte value %d out of range", n)
			}
			data = append(data, byte(n))
		}
		return uint32(len(data)), nil, data, nil
	case ".ascii", ".asciz":
		s, err := strconv.Unquote(strings.TrimSpace(rest))
		if err != nil {
			return 0, nil, nil, errf(line, "bad string %q", rest)
		}
		data = []byte(s)
		if mnem == ".asciz" {
			data = append(data, 0)
		}
		return uint32(len(data)), nil, data, nil
	case ".align":
		n, err := parseNumber(rest, line)
		if err != nil || n <= 0 || (n&(n-1)) != 0 {
			return 0, nil, nil, errf(line, ".align needs a positive power of two")
		}
		pad := (uint32(n) - pc%uint32(n)) % uint32(n)
		return pad, nil, make([]byte, pad), nil
	case ".space":
		n, err := parseNumber(rest, line)
		if err != nil || n < 0 {
			return 0, nil, nil, errf(line, ".space needs a non-negative size")
		}
		return uint32(n), nil, make([]byte, n), nil
	default:
		return 0, nil, nil, errf(line, "unknown directive %q", mnem)
	}
}

// Disassemble renders an image back to one instruction per line, best
// effort: undecodable words render as .word literals.
func Disassemble(image []byte, origin uint32) string {
	var sb strings.Builder
	for i := 0; i+4 <= len(image); i += 4 {
		w := uint32(image[i]) | uint32(image[i+1])<<8 |
			uint32(image[i+2])<<16 | uint32(image[i+3])<<24
		fmt.Fprintf(&sb, "%08x:  ", origin+uint32(i))
		if ins, err := isa.Decode(w); err == nil {
			sb.WriteString(ins.String())
		} else {
			fmt.Fprintf(&sb, ".word 0x%08x", w)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
