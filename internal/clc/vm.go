package clc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The lowered executor: every function of a Program is lowered once into
// flat, statically typed register code (lower.go) and run by the loop in
// this file. A work-item is a frame stack plus a program counter, so
// barrier() is a return to the group loop (program.go) with the item's
// state intact; the group loop resumes it once every live item has arrived.

// slot is one frame register. Integers live in i, normalised to their
// static type (sign- or zero-extended); floats live in i as float64 bits
// (a `float` is the float64 widening of its float32 value); a pointer is
// its byte offset in i and its region in m (nil for a null pointer).
type slot struct {
	i int64
	m *memory
}

func fbits(f float64) int64     { return int64(math.Float64bits(f)) }
func (s slot) f() float64       { return math.Float64frombits(uint64(s.i)) }
func round32(f float64) float64 { return float64(float32(f)) }

// memory is one addressable storage region (a global buffer, a __local
// allocation, a __constant table, or a private array).
type memory struct {
	data     []byte
	global   bool // accesses are counted in the profile
	readonly bool // a file-scope __constant table, shared by every launch
}

type opcode uint16

// instr is one lowered instruction; a is the destination register unless
// the opcode's comment says otherwise, b/c/d are source registers, jump
// targets or small immediates.
type instr struct {
	op         opcode
	a, b, c, d int32
}

const (
	opMov    opcode = iota // a = b (whole slot)
	opID                   // a = ids[b]
	opIDDyn                // a = ids[b+dim c], 0 when the dimension is out of range
	opGlobal               // a = file-scope constant b

	// Integer arithmetic, by the result's static type.
	opAddI32
	opAddU32
	opAdd64
	opSubI32
	opSubU32
	opSub64
	opMulI32
	opMulU32
	opMul64
	opDivS
	opDivU
	opModS
	opModU
	opAnd
	opOr
	opXor
	opShlI32
	opShlU32
	opShl64
	opShrS
	opShrU // of a zero-extended value: right for uint as for ulong
	opNeg
	opBitNot
	opLtS
	opLeS
	opLtU
	opLeU
	opEq
	opNe
	opMinS
	opMaxS
	opMinU
	opMaxU
	opAbsU32
	opRotl32
	opPopcnt

	// Float arithmetic; d != 0 rounds the result to single precision.
	// Every one of these counts one flop, except opFInc.
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFNeg
	opFAbs
	opFLt
	opFLe
	opFEq
	opFNe
	opFMin
	opFMax
	opFInc // a = b + float(c); d!=0 rounds to single; ++/-- count no flop

	// Conversions.
	opNarrow // a = b normalised to integer kind d
	opI2F    // d != 0 rounds to single precision, here and below
	opU2F
	opF2F
	opF2I
	opBitsF32 // a = float whose single-precision bits are uint32(b)
	opF32Bits // a = single-precision bits of float b

	// Branches, by the condition's static type.
	opJmp  // pc = a
	opBack // pc = a, a loop back-edge: counted against the step limit
	opJzI  // if !a: pc = b
	opJnzI
	opJzF
	opJnzF
	opJzP
	opJnzP
	opJLtS // if a < b: pc = c
	opJLeS
	opJLtU
	opJLeU
	opJEq
	opJNe

	// Memory: a = value register, b = pointer register, c = index
	// register, d = what a null pointer is reported as (see nullErr).
	opLdF32
	opLdF64
	opLdI8
	opLdU8
	opLdI16
	opLdU16
	opLdI32
	opLdU32
	opLd64
	opSt8
	opSt16
	opSt32
	opSt64
	opStF32

	// Pointers.
	opPtrAdd    // a = b + c*d bytes
	opPtrIdx    // a = &b[c] with element size d; b must not be null
	opPtrDeref  // a = b; b must not be null
	opPtrDiff   // a = (b - c) / d
	opPtrEq     // a = b == c
	opPtrSame   // error unless b and c point into the same region
	opPtrIsNull // a = (pointer b is null && integer c == 0)

	// Arrays, calls, builtins.
	opAllocPriv  // a = new private array of b elements of d bytes; c = cache register
	opAllocLocal // a = this group's __local array c, b elements of d bytes
	opCall       // a = funcs[c](b, b+1, ...)
	opRet        // return register a
	opBarrier
	opTrap // raise traps[a]
	opMath // a = mathFns[d&0xffff](b, b+1, ...), rounded to single when d>>16 != 0
)

// Indices into item.ids; the dimension is added to the base.
const (
	idGlobalID = 3 * iota
	idLocalID
	idGroupID
	idGlobalSize
	idLocalSize
	idNumGroups
	idGlobalOffset
	idWorkDim // a single entry
	idCount   = idWorkDim + 1
)

// lfunc is one lowered function.
type lfunc struct {
	name    string
	code    []instr
	tmpl    []slot // initial frame: zeroed variables, preloaded constants
	nparams int
	notes   map[int32]string // pc -> the source name an instruction's error mentions
}

// frameRec is a suspended caller.
type frameRec struct {
	fn     *lfunc
	pc, fp int32
	dst    int32 // the caller's register for the result
	nprivs int
}

// item is one work-item: a frame stack, a program counter and its counts.
type item struct {
	stack  []slot
	calls  []frameRec
	fn     *lfunc
	pc, fp int32
	ids    [idCount]int64
	flops  int64
	gbytes int64
	steps  int64     // loop back-edges and calls taken, bounded by the step limit
	privs  []*memory // private arrays, recycled across items
	nprivs int
	ret    slot // what the entry function returned
}

const (
	maxSteps      = 1 << 28 // runaway-kernel guard: back-edges and calls per work-item
	maxCallDepth  = 64
	maxArrayElems = 1 << 26
)

var errYield = errors.New("clc: barrier")

// start resets it to the entry of fn with frame as its initial registers.
func (it *item) start(fn *lfunc, frame []slot) {
	it.stack = append(it.stack[:0], frame...)
	it.calls = it.calls[:0]
	it.fn, it.pc, it.fp = fn, 0, 0
	it.flops, it.gbytes, it.steps, it.nprivs = 0, 0, 0, 0
}

// newPriv returns a zeroed private array of size bytes.
func (it *item) newPriv(size int) *memory {
	if it.nprivs == len(it.privs) {
		it.privs = append(it.privs, &memory{})
	}
	m := it.privs[it.nprivs]
	it.nprivs++
	m.data = zeroed(m.data, size)
	return m
}

// zeroed returns buf resized to n zero bytes, reusing its storage.
func zeroed(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// nullErr is the failure of an access through a null pointer; kind says
// what the source wrote: p[i], *p, or an atomic builtin (named by notes).
func nullErr(fn *lfunc, pc, kind int32) error {
	msgs := [...]string{"indexing null pointer", "dereferencing non-pointer or null pointer",
		fn.notes[pc-1] + ": first argument must be a non-null pointer"}
	return errors.New(msgs[kind])
}

// Access sizes of the load and store opcodes, in declaration order.
var (
	loadSize  = [...]int64{4, 8, 1, 1, 2, 2, 4, 4, 8}
	storeSize = [...]int64{1, 2, 4, 8, 4}
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// run executes it until it returns from its entry function (nil), reaches
// a barrier (errYield) or fails. Counts accumulate in it.flops/it.gbytes.
func (g *group) run(it *item) error {
	fn := it.fn
	code := fn.code
	r := it.stack[it.fp : int(it.fp)+len(fn.tmpl)]
	pc := it.pc
	flops, gbytes, steps := it.flops, it.gbytes, it.steps
	var err error
	for {
		in := &code[pc]
		pc++
		switch in.op {
		case opMov:
			r[in.a] = r[in.b]
		case opID:
			r[in.a].i = it.ids[in.b]
		case opGlobal:
			r[in.a] = g.low.globals[in.b]
		case opIDDyn:
			if d := r[in.c].i; d >= 0 && d <= 2 {
				r[in.a].i = it.ids[int64(in.b)+d]
			} else {
				r[in.a].i = 0
			}

		case opAddI32:
			r[in.a].i = int64(int32(r[in.b].i + r[in.c].i))
		case opAddU32:
			r[in.a].i = int64(uint32(r[in.b].i + r[in.c].i))
		case opAdd64:
			r[in.a].i = r[in.b].i + r[in.c].i
		case opSubI32:
			r[in.a].i = int64(int32(r[in.b].i - r[in.c].i))
		case opSubU32:
			r[in.a].i = int64(uint32(r[in.b].i - r[in.c].i))
		case opSub64:
			r[in.a].i = r[in.b].i - r[in.c].i
		case opMulI32:
			r[in.a].i = int64(int32(r[in.b].i * r[in.c].i))
		case opMulU32:
			r[in.a].i = int64(uint32(r[in.b].i * r[in.c].i))
		case opMul64:
			r[in.a].i = r[in.b].i * r[in.c].i
		case opDivS, opDivU, opModS, opModU:
			x, y := r[in.b].i, r[in.c].i
			switch {
			case y == 0 && in.op <= opDivU:
				err = errors.New("integer division by zero")
				goto fail
			case y == 0:
				err = errors.New("integer modulo by zero")
				goto fail
			case in.op == opDivS:
				r[in.a].i = x / y
			case in.op == opModS:
				r[in.a].i = x % y
			case in.op == opDivU:
				r[in.a].i = int64(uint64(x) / uint64(y))
			default:
				r[in.a].i = int64(uint64(x) % uint64(y))
			}
		case opAnd:
			r[in.a].i = r[in.b].i & r[in.c].i
		case opOr:
			r[in.a].i = r[in.b].i | r[in.c].i
		case opXor:
			r[in.a].i = r[in.b].i ^ r[in.c].i
		case opShlI32:
			r[in.a].i = int64(int32(r[in.b].i << uint(r[in.c].i&63)))
		case opShlU32:
			r[in.a].i = int64(uint32(r[in.b].i << uint(r[in.c].i&63)))
		case opShl64:
			r[in.a].i = r[in.b].i << uint(r[in.c].i&63)
		case opShrS:
			r[in.a].i = r[in.b].i >> uint(r[in.c].i&63)
		case opShrU:
			r[in.a].i = int64(uint64(r[in.b].i) >> uint(r[in.c].i&63))
		case opNeg:
			r[in.a].i = -r[in.b].i
		case opBitNot:
			r[in.a].i = ^r[in.b].i
		case opLtS:
			r[in.a].i = b2i(r[in.b].i < r[in.c].i)
		case opLeS:
			r[in.a].i = b2i(r[in.b].i <= r[in.c].i)
		case opLtU:
			r[in.a].i = b2i(uint64(r[in.b].i) < uint64(r[in.c].i))
		case opLeU:
			r[in.a].i = b2i(uint64(r[in.b].i) <= uint64(r[in.c].i))
		case opEq:
			r[in.a].i = b2i(r[in.b].i == r[in.c].i)
		case opNe:
			r[in.a].i = b2i(r[in.b].i != r[in.c].i)
		case opMinS:
			r[in.a].i = min(r[in.b].i, r[in.c].i)
		case opMaxS:
			r[in.a].i = max(r[in.b].i, r[in.c].i)
		case opMinU:
			r[in.a].i = int64(min(uint64(r[in.b].i), uint64(r[in.c].i)))
		case opMaxU:
			r[in.a].i = int64(max(uint64(r[in.b].i), uint64(r[in.c].i)))
		case opAbsU32:
			n := r[in.b].i
			if n < 0 {
				n = -n
			}
			r[in.a].i = int64(uint32(n))
		case opRotl32:
			r[in.a].i = int64(bits.RotateLeft32(uint32(r[in.b].i), int(uint(r[in.c].i)%32)))
		case opPopcnt:
			r[in.a].i = int64(bits.OnesCount64(uint64(r[in.b].i)))

		case opFAdd, opFSub, opFMul, opFDiv:
			flops++
			x, y := r[in.b].f(), r[in.c].f()
			switch in.op {
			case opFAdd:
				x += y
			case opFSub:
				x -= y
			case opFMul:
				x *= y
			default:
				x /= y
			}
			if in.d != 0 {
				x = round32(x)
			}
			r[in.a].i = fbits(x)
		case opFNeg:
			flops++
			r[in.a].i = fbits(-r[in.b].f())
		case opFAbs:
			flops++
			r[in.a].i = fbits(math.Abs(r[in.b].f()))
		case opFLt:
			flops++
			r[in.a].i = b2i(r[in.b].f() < r[in.c].f())
		case opFLe:
			flops++
			r[in.a].i = b2i(r[in.b].f() <= r[in.c].f())
		case opFEq:
			flops++
			r[in.a].i = b2i(r[in.b].f() == r[in.c].f())
		case opFNe:
			flops++
			r[in.a].i = b2i(r[in.b].f() != r[in.c].f())
		case opFMin, opFMax:
			// min is its first operand only if that is the lesser; max its
			// second only if that is the greater (NaN compares false).
			flops++
			lo, hi := r[in.b].i, r[in.c].i
			if !(r[in.b].f() < r[in.c].f()) {
				lo, hi = hi, lo
			}
			r[in.a].i = lo
			if in.op == opFMax {
				r[in.a].i = hi
			}
		case opFInc:
			v := r[in.b].f() + float64(in.c)
			if in.d != 0 {
				v = round32(v)
			}
			r[in.a].i = fbits(v)

		case opNarrow:
			r[in.a].i = normalizeKind(r[in.b].i, TypeKind(in.d))
		case opI2F, opU2F, opF2F:
			v := r[in.b].f()
			switch in.op {
			case opI2F:
				v = float64(r[in.b].i)
			case opU2F:
				v = float64(uint64(r[in.b].i))
			}
			if in.d != 0 {
				v = round32(v)
			}
			r[in.a].i = fbits(v)
		case opF2I:
			r[in.a].i = int64(r[in.b].f())
		case opBitsF32:
			r[in.a].i = fbits(float64(math.Float32frombits(uint32(r[in.b].i))))
		case opF32Bits:
			r[in.a].i = int64(math.Float32bits(float32(r[in.b].f())))

		case opJmp:
			pc = in.a
		case opBack:
			if steps++; steps > g.stepLimit {
				err = errors.New("loop iteration limit exceeded")
				goto fail
			}
			pc = in.a
		case opJzI:
			if r[in.a].i == 0 {
				pc = in.b
			}
		case opJnzI:
			if r[in.a].i != 0 {
				pc = in.b
			}
		case opJzF:
			if !(r[in.a].f() != 0) {
				pc = in.b
			}
		case opJnzF:
			if r[in.a].f() != 0 {
				pc = in.b
			}
		case opJzP:
			if r[in.a].m == nil {
				pc = in.b
			}
		case opJnzP:
			if r[in.a].m != nil {
				pc = in.b
			}
		case opJLtS:
			if r[in.a].i < r[in.b].i {
				pc = in.c
			}
		case opJLeS:
			if r[in.a].i <= r[in.b].i {
				pc = in.c
			}
		case opJLtU:
			if uint64(r[in.a].i) < uint64(r[in.b].i) {
				pc = in.c
			}
		case opJLeU:
			if uint64(r[in.a].i) <= uint64(r[in.b].i) {
				pc = in.c
			}
		case opJEq:
			if r[in.a].i == r[in.b].i {
				pc = in.c
			}
		case opJNe:
			if r[in.a].i != r[in.b].i {
				pc = in.c
			}

		case opLdF32, opLdF64, opLdI8, opLdU8, opLdI16, opLdU16, opLdI32, opLdU32, opLd64:
			size := loadSize[in.op-opLdF32]
			m := r[in.b].m
			off := r[in.b].i + r[in.c].i*size
			if m == nil {
				err = nullErr(fn, pc, in.d)
				goto fail
			}
			if off < 0 || off+size > int64(len(m.data)) {
				err = fmt.Errorf("memory load out of bounds: offset %d size %d in %d-byte region", off, size, len(m.data))
				goto fail
			}
			if m.global {
				gbytes += size
			}
			switch in.op {
			case opLdF32:
				r[in.a].i = fbits(float64(math.Float32frombits(binary.LittleEndian.Uint32(m.data[off:]))))
			case opLdF64, opLd64:
				r[in.a].i = int64(binary.LittleEndian.Uint64(m.data[off:]))
			case opLdI8:
				r[in.a].i = int64(int8(m.data[off]))
			case opLdU8:
				r[in.a].i = int64(m.data[off])
			case opLdI16:
				r[in.a].i = int64(int16(binary.LittleEndian.Uint16(m.data[off:])))
			case opLdU16:
				r[in.a].i = int64(binary.LittleEndian.Uint16(m.data[off:]))
			case opLdI32:
				r[in.a].i = int64(int32(binary.LittleEndian.Uint32(m.data[off:])))
			default:
				r[in.a].i = int64(binary.LittleEndian.Uint32(m.data[off:]))
			}
		case opSt8, opSt16, opSt32, opSt64, opStF32:
			size := storeSize[in.op-opSt8]
			m := r[in.b].m
			off := r[in.b].i + r[in.c].i*size
			if m == nil {
				err = nullErr(fn, pc, in.d)
				goto fail
			}
			if off < 0 || off+size > int64(len(m.data)) {
				err = fmt.Errorf("memory store out of bounds: offset %d size %d in %d-byte region", off, size, len(m.data))
				goto fail
			}
			if m.global {
				gbytes += size
			} else if m.readonly {
				err = errors.New("store to __constant memory")
				goto fail
			}
			switch in.op {
			case opSt8:
				m.data[off] = byte(r[in.a].i)
			case opSt16:
				binary.LittleEndian.PutUint16(m.data[off:], uint16(r[in.a].i))
			case opSt32:
				binary.LittleEndian.PutUint32(m.data[off:], uint32(r[in.a].i))
			case opSt64:
				binary.LittleEndian.PutUint64(m.data[off:], uint64(r[in.a].i))
			default:
				binary.LittleEndian.PutUint32(m.data[off:], math.Float32bits(float32(r[in.a].f())))
			}
		case opPtrAdd:
			r[in.a] = slot{i: r[in.b].i + r[in.c].i*int64(in.d), m: r[in.b].m}
		case opPtrIdx:
			if r[in.b].m == nil {
				err = nullErr(fn, pc, 0)
				goto fail
			}
			r[in.a] = slot{i: r[in.b].i + r[in.c].i*int64(in.d), m: r[in.b].m}
		case opPtrDeref:
			if r[in.b].m == nil {
				err = nullErr(fn, pc, 1)
				goto fail
			}
			r[in.a] = r[in.b]
		case opPtrDiff:
			if r[in.b].m != r[in.c].m {
				err = errors.New("subtraction of pointers into different objects")
				goto fail
			}
			r[in.a].i = (r[in.b].i - r[in.c].i) / int64(in.d)
		case opPtrEq:
			r[in.a].i = b2i(r[in.b] == r[in.c])
		case opPtrSame:
			if r[in.b].m != r[in.c].m {
				err = errors.New("comparison of pointers into different objects")
				goto fail
			}
		case opPtrIsNull:
			r[in.a].i = b2i(r[in.b].m == nil && r[in.c].i == 0)

		case opAllocPriv, opAllocLocal:
			n := r[in.b].i
			if n < 0 || n > maxArrayElems {
				err = fmt.Errorf("array %s has invalid length %d", fn.notes[pc-1], n)
				goto fail
			}
			size := int(n) * int(in.d)
			if in.op == opAllocLocal {
				r[in.a] = slot{m: g.localArray(int(in.c), size)}
				break
			}
			// A declaration re-executed by a loop reuses its own array.
			m := r[in.c].m
			if m == nil {
				m = it.newPriv(size)
				r[in.c].m = m
			} else {
				m.data = zeroed(m.data, size)
			}
			r[in.a] = slot{m: m}

		case opCall:
			if steps++; len(it.calls) > maxCallDepth || steps > g.stepLimit {
				err = fmt.Errorf("call depth limit exceeded calling %q", g.low.funcs[in.c].name)
				goto fail
			}
			callee := g.low.funcs[in.c]
			it.calls = append(it.calls, frameRec{fn: fn, pc: pc, fp: it.fp, dst: in.a, nprivs: it.nprivs})
			nfp := int(it.fp) + len(fn.tmpl)
			it.stack = append(it.stack[:nfp], callee.tmpl...)
			copy(it.stack[nfp:], it.stack[int(it.fp)+int(in.b):][:callee.nparams])
			fn, code, pc, it.fp = callee, callee.code, 0, int32(nfp)
			r = it.stack[nfp : nfp+len(fn.tmpl)]
		case opRet:
			v := r[in.a]
			n := len(it.calls) - 1
			if n < 0 {
				it.flops, it.gbytes, it.ret = flops, gbytes, v
				return nil
			}
			rec := it.calls[n]
			it.calls = it.calls[:n]
			fn, code, pc, it.fp, it.nprivs = rec.fn, rec.fn.code, rec.pc, rec.fp, rec.nprivs
			r = it.stack[it.fp : int(it.fp)+len(fn.tmpl)]
			r[rec.dst] = v
		case opBarrier:
			it.fn, it.pc = fn, pc
			it.flops, it.gbytes, it.steps = flops, gbytes, steps
			return errYield
		case opTrap:
			err = errors.New(fn.notes[pc-1])
			goto fail

		case opMath:
			m := &mathFns[in.d&0xffff]
			flops += m.weight
			var v float64
			switch m.nargs {
			case 1:
				v = m.f1(r[in.b].f())
			case 2:
				v = m.f2(r[in.b].f(), r[in.b+1].f())
			default:
				v = m.f3(r[in.b].f(), r[in.b+1].f(), r[in.b+2].f())
			}
			if in.d>>16 != 0 {
				v = round32(v)
			}
			r[in.a].i = fbits(v)
		default:
			err = fmt.Errorf("clc: internal error: opcode %d", in.op)
			goto fail
		}
	}
fail:
	for n := len(it.calls) - 1; n >= 0; n-- {
		err = fmt.Errorf("in %s: %w", fn.name, err)
		fn = it.calls[n].fn
	}
	return err
}
