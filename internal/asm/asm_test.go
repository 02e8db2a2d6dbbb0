package asm

import (
	"strings"
	"testing"

	"invisiblebits/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func word(p *Program, i int) uint32 {
	off := i * 4
	return uint32(p.Image[off]) | uint32(p.Image[off+1])<<8 |
		uint32(p.Image[off+2])<<16 | uint32(p.Image[off+3])<<24
}

func TestAssembleBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
        movi r1, #0x1234
        movt r1, #0x2000
        add  r2, r1, r1
        nop
        halt
`)
	if len(p.Image) != 20 {
		t.Fatalf("image size = %d", len(p.Image))
	}
	ins, err := isa.Decode(word(p, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ins.Op != isa.OpMOVI || ins.Rd != 1 || ins.Imm != 0x1234 {
		t.Errorf("first instruction = %v", ins)
	}
	ins, _ = isa.Decode(word(p, 4))
	if ins.Op != isa.OpHALT {
		t.Errorf("last instruction = %v", ins)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
start:  movi r0, #0
loop:   addi r0, r0, #1
        cmp  r0, r1
        bne  loop
        b    done
done:   halt
`)
	// bne loop: at address 12, target 4 → offset (4-12-4)/4 = -3.
	ins, _ := isa.Decode(word(p, 3))
	if ins.Op != isa.OpBNE || ins.Imm != -3 {
		t.Errorf("bne = %v", ins)
	}
	// b done: at address 16, target 20 → offset 0.
	ins, _ = isa.Decode(word(p, 4))
	if ins.Op != isa.OpB || ins.Imm != 0 {
		t.Errorf("b = %v", ins)
	}
	if p.Symbols["start"] != 0 || p.Symbols["loop"] != 4 || p.Symbols["done"] != 20 {
		t.Errorf("symbols = %v", p.Symbols)
	}
}

func TestBusyWaitSelfBranch(t *testing.T) {
	p := mustAssemble(t, "wait: b wait\n")
	ins, _ := isa.Decode(word(p, 0))
	if ins.Op != isa.OpB || ins.Imm != -1 {
		t.Errorf("self branch = %v, want offset -1", ins)
	}
}

func TestLAPseudoInstruction(t *testing.T) {
	p := mustAssemble(t, `
        la   r2, payload
        halt
payload:
        .word 0xdeadbeef
`)
	lo, _ := isa.Decode(word(p, 0))
	hi, _ := isa.Decode(word(p, 1))
	addr := p.Symbols["payload"]
	if lo.Op != isa.OpMOVI || uint32(lo.Imm) != addr&0xFFFF {
		t.Errorf("la low = %v", lo)
	}
	if hi.Op != isa.OpMOVT || uint32(hi.Imm) != addr>>16 {
		t.Errorf("la high = %v", hi)
	}
	if word(p, 3) != 0xdeadbeef {
		t.Errorf("payload word = %#x", word(p, 3))
	}
}

func TestDataDirectives(t *testing.T) {
	p := mustAssemble(t, `
        .word 1, 2, 0xFFFF0000
        .byte 1, 2, 255
        .ascii "hi"
        .asciz "x"
        .align 4
        .space 3
end:
`)
	if word(p, 0) != 1 || word(p, 1) != 2 || word(p, 2) != 0xFFFF0000 {
		t.Error("words wrong")
	}
	if p.Image[12] != 1 || p.Image[14] != 255 {
		t.Error("bytes wrong")
	}
	if string(p.Image[15:17]) != "hi" {
		t.Error("ascii wrong")
	}
	if string(p.Image[17:19]) != "x\x00" {
		t.Error("asciz wrong")
	}
	// After 19 bytes, .align 4 pads to 20, .space 3 → end at 23.
	if p.Symbols["end"] != 23 {
		t.Errorf("end = %d", p.Symbols["end"])
	}
}

func TestWordWithLabelReference(t *testing.T) {
	p := mustAssemble(t, `
        .word target
target: .word 42
`)
	if word(p, 0) != 4 {
		t.Errorf("label word = %d, want 4", word(p, 0))
	}
}

func TestMemoryOperands(t *testing.T) {
	p := mustAssemble(t, `
        ldr  r3, [r2]
        ldr  r4, [r2, #8]
        str  r3, [r1, #-4]
        strb r3, [r1, #1]
`)
	ins, _ := isa.Decode(word(p, 0))
	if ins.Op != isa.OpLDR || ins.Rd != 3 || ins.Rs != 2 || ins.Imm != 0 {
		t.Errorf("ldr[0] = %v", ins)
	}
	ins, _ = isa.Decode(word(p, 2))
	if ins.Op != isa.OpSTR || ins.Rt != 3 || ins.Rs != 1 || ins.Imm != -4 {
		t.Errorf("str = %v", ins)
	}
}

func TestCommentsAndCase(t *testing.T) {
	p := mustAssemble(t, `
        MOVI R1, #1   ; trailing comment
        nop           // c++ style
        nop           # shell style
`)
	if len(p.Image) != 12 {
		t.Fatalf("image size = %d", len(p.Image))
	}
}

func TestNumberFormats(t *testing.T) {
	p := mustAssemble(t, `
        movi r0, #10
        movi r1, #0x0A
        movi r2, #0b1010
        movi r3, 10
        addi r4, r4, #-10
        movi r5, #'A'
`)
	for i := 0; i < 4; i++ {
		ins, _ := isa.Decode(word(p, i))
		if ins.Imm != 10 {
			t.Errorf("instruction %d imm = %d", i, ins.Imm)
		}
	}
	ins, _ := isa.Decode(word(p, 4))
	if ins.Imm != -10 {
		t.Errorf("addi imm = %d", ins.Imm)
	}
	ins, _ = isa.Decode(word(p, 5))
	if ins.Imm != 'A' {
		t.Errorf("char imm = %d", ins.Imm)
	}
}

// TestParseNumberForms: parseNumber takes either case of the 0x and 0b
// prefixes, an optional '#', a sign and character literals, and
// resolveValue reads numeric tokens as numbers and labels as their
// addresses.
func TestParseNumberForms(t *testing.T) {
	cases := map[string]int64{
		"0x1F": 31, "0X1f": 31, "#0x1f": 31, "#0XFF": 255,
		"0b101": 5, "0B101": 5, "#0b11": 3, "#0B11": 3,
		"42": 42, "#42": 42, "+7": 7, "#+7": 7, "-12": -12, "#-12": -12,
		"-0x10": -16, "#-0X10": -16, "-0b11": -3,
		"'A'": 'A', "#'z'": 'z', "'\\n'": '\n',
		"0": 0, "#0": 0, " 0x0 ": 0,
	}
	for tok, want := range cases {
		got, err := parseNumber(tok, 1)
		if err != nil || got != want {
			t.Errorf("parseNumber(%q) = %d, %v; want %d", tok, got, err, want)
		}
	}
	for _, tok := range []string{"0x", "0b2", "0xG", "#", "''", "'ab'", "x10", "1_000"} {
		if _, err := parseNumber(tok, 1); err == nil {
			t.Errorf("parseNumber(%q) accepted", tok)
		}
	}
	symbols := map[string]uint32{"data": 0x2000, "x1": 0x40}
	for tok, want := range map[string]uint32{"data": 0x2000, "#x1": 0x40, "0x40": 0x40, "#0X7": 7, "-1": 0xFFFFFFFF, "'B'": 'B'} {
		got, err := resolveValue(tok, symbols, 1)
		if err != nil || got != want {
			t.Errorf("resolveValue(%q) = %#x, %v; want %#x", tok, got, err, want)
		}
	}
	if _, err := resolveValue("nowhere", symbols, 1); err == nil {
		t.Error("resolveValue accepted an unknown symbol")
	}
}

func TestOriginAffectsSymbols(t *testing.T) {
	p, err := Assemble("start: nop\n", 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["start"] != 0x1000 {
		t.Errorf("start = %#x", p.Symbols["start"])
	}
}

func TestAssemblyErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":  "frob r1, r2\n",
		"bad register":      "mov r1, r99\n",
		"missing operand":   "add r1, r2\n",
		"unknown target":    "b nowhere\n",
		"duplicate label":   "x: nop\nx: nop\n",
		"bad number":        "movi r1, #zzz\n",
		"imm out of range":  "movi r1, #0x10000\n",
		"bad directive":     ".frob 3\n",
		"byte range":        ".byte 256\n",
		"align not pow2":    ".align 3\n",
		"bad string":        ".ascii hello\n",
		"word no values":    ".word\n",
		"empty label chain": ":\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src, 0); err == nil {
			t.Errorf("%s: assembled without error", name)
		} else if aerr, ok := err.(*Error); !ok || aerr.Line == 0 {
			t.Errorf("%s: error lacks line info: %v", name, err)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
        movi r1, #4660
        movt r1, #8192
        add  r2, r1, r1
loop:   b    loop
`
	p := mustAssemble(t, src)
	dis := Disassemble(p.Image, 0)
	for _, want := range []string{"movi r1, #4660", "movt r1, #8192", "add r2, r1, r1", "b -1"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestDisassembleUndecodableWord(t *testing.T) {
	dis := Disassemble([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 0)
	if !strings.Contains(dis, ".word 0xffffffff") {
		t.Errorf("disassembly = %q", dis)
	}
}

func BenchmarkAssemblePayloadWriterSized(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("start: la r1, data\n")
	for i := 0; i < 1000; i++ {
		sb.WriteString("  ldr r2, [r1, #0]\n  str r2, [r1, #4]\n")
	}
	sb.WriteString("wait: b wait\ndata: .word 1,2,3,4\n")
	src := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src, 0); err != nil {
			b.Fatal(err)
		}
	}
}
