package hdl

// Seeded random-program generation for differential testing: GenProgram
// builds a well-typed AST from a splitmix64 stream, GenStream builds a
// packet stream, and the harness runs both executions over the pair. The
// generator emits source through (*Program).Render, so every random program
// also exercises the lexer and parser.

import "activesan/internal/sim"

// genCtx tracks what names an expression may reference at the current
// point, mirroring the checker's scoping rules.
type genCtx struct {
	r      *sim.Rand
	vars   []string
	params []string
	consts []string
	// unit / unitSize are set inside the on-stage; unit is "" in record
	// mode and in the end stage.
	unit     string
	unitSize int // 0 outside the on-stage
	inOn     bool
}

// GenProgram builds a random well-typed handler from a seed. Every program
// it returns passes Check, compiles within the encoding limits, and
// terminates (the language's only loop is the bounded stream walk).
func GenProgram(seed uint64) *Program {
	r := sim.NewRand(seed)
	p := &Program{Name: "gen"}
	g := &genCtx{r: r}

	for i, n := 0, r.Intn(3); i < n; i++ {
		name := string(rune('A' + i))
		p.Consts = append(p.Consts, ConstDecl{Name: name, Value: genConst(r)})
		g.consts = append(g.consts, name)
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		name := "p" + string(rune('0'+i))
		p.Params = append(p.Params, name)
		g.params = append(g.params, name)
	}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		name := "v" + string(rune('0'+i))
		v := VarDecl{Name: name}
		if r.Intn(2) == 0 {
			v.Init, v.HasInit = genConst(r), true
		}
		p.Vars = append(p.Vars, v)
		g.vars = append(g.vars, name)
	}

	on := &OnStage{}
	switch r.Intn(3) {
	case 0:
		on.Mode, on.Size, on.Unit = UnitByte, 1, "u"
	case 1:
		on.Mode, on.Size, on.Unit = UnitWord, 4, "u"
	default:
		on.Mode, on.Size = UnitRecord, 2+r.Intn(31) // 2..32-byte records
	}
	g.inOn, g.unit, g.unitSize = true, on.Unit, on.Size
	on.Body = g.stmts(1+r.Intn(4), 2)
	g.inOn, g.unit, g.unitSize = false, "", 0
	p.On = on

	p.HasEnd = true
	p.End = g.stmts(1+r.Intn(3), 2)
	// Always observe the final state so register divergence shows up in
	// the output vector too.
	for _, v := range g.vars {
		p.End = append(p.End, &Emit{X: &Ref{Name: v}})
	}
	return p
}

// genConst picks constant values across the interesting ranges: small
// single-instruction immediates, wide 32-bit values needing the byte-chunk
// build, and boundary cases.
func genConst(r *sim.Rand) int64 {
	switch r.Intn(6) {
	case 0:
		return int64(r.Intn(2048)) - 1024 // [-1024, 1023], one instruction
	case 1:
		return int64(uint32(r.Next())) // anywhere in 32 bits
	case 2:
		return -int64(r.Intn(1 << 31)) // negative, often wide
	case 3:
		return []int64{0, 1, -1, 255, 256, 1023, 1024, -1024, -1025,
			1<<31 - 1, -(1 << 31), 1<<32 - 1}[r.Intn(12)]
	case 4:
		return int64(r.Intn(256))
	default:
		return int64(r.Intn(1 << 16))
	}
}

// stmts builds up to n statements; depth bounds if-nesting.
func (g *genCtx) stmts(n, depth int) []Stmt {
	var out []Stmt
	for i := 0; i < n; i++ {
		out = append(out, g.stmt(depth))
	}
	return out
}

func (g *genCtx) stmt(depth int) Stmt {
	for {
		switch g.r.Intn(6) {
		case 0, 1:
			return &Assign{Name: g.vars[g.r.Intn(len(g.vars))], X: g.expr(3)}
		case 2:
			return &Emit{X: g.expr(3)}
		case 3:
			return &Steer{X: g.expr(2)}
		case 4:
			if depth == 0 {
				continue
			}
			s := &If{
				Cond: Cond{L: g.expr(2), Op: RelOp(g.r.Intn(6)), R: g.expr(2)},
				Then: g.stmts(1+g.r.Intn(2), depth-1),
			}
			if g.r.Intn(2) == 0 {
				s.Else, s.HasElse = g.stmts(1+g.r.Intn(2), depth-1), true
			}
			return s
		default:
			if !g.inOn || g.r.Intn(3) != 0 { // drop is rare and on-stage only
				continue
			}
			return &Drop{}
		}
	}
}

// expr builds an expression of bounded structural depth; the bound keeps
// exprDepth within the compiler's scratch window even one slot up inside a
// comparison's right operand.
func (g *genCtx) expr(depth int) Expr {
	if depth == 0 || g.r.Intn(3) == 0 {
		return g.leaf()
	}
	op := []BinOp{OpAdd, OpSub, OpOr, OpXor, OpAnd, OpMul, OpShl, OpShr}[g.r.Intn(8)]
	if op == OpShl || op == OpShr {
		return &Bin{Op: op, L: g.expr(depth - 1), R: &Num{V: int64(g.r.Intn(32))}}
	}
	return &Bin{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
}

func (g *genCtx) leaf() Expr {
	names := len(g.vars) + len(g.params) + len(g.consts)
	if g.unit != "" {
		names++
	}
	pick := g.r.Intn(names + 2)
	switch {
	case pick < len(g.vars):
		return &Ref{Name: g.vars[pick]}
	case pick < len(g.vars)+len(g.params):
		return &Ref{Name: g.params[pick-len(g.vars)]}
	case pick < len(g.vars)+len(g.params)+len(g.consts):
		return &Ref{Name: g.consts[pick-len(g.vars)-len(g.params)]}
	case g.unit != "" && pick == names-1:
		return &Ref{Name: g.unit}
	case g.inOn && g.unitSize >= 1 && g.r.Intn(2) == 0:
		if g.unitSize >= 4 && g.r.Intn(2) == 0 {
			return &Field{Word: true, Off: g.r.Intn(g.unitSize - 3)}
		}
		return &Field{Off: g.r.Intn(g.unitSize)}
	default:
		return &Num{V: genConst(g.r)}
	}
}

// GenStream builds a random packet stream: lengths cover empty, tiny, and
// multi-buffer cases, with byte values across the full range.
func GenStream(seed uint64) []byte {
	r := sim.NewRand(seed)
	n := []int{0, 1, 3, 4, 7, 16, 33, 64, 100, 257}[r.Intn(10)] + r.Intn(32)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Next())
	}
	return b
}

// GenParams binds random values to a program's parameters.
func GenParams(p *Program, seed uint64) map[string]uint32 {
	r := sim.NewRand(seed)
	m := make(map[string]uint32, len(p.Params))
	for _, name := range p.Params {
		m[name] = uint32(r.Next())
	}
	return m
}
