package lang

import (
	"fmt"
	"strconv"

	"repro/internal/ddg"
	"repro/internal/graph"
)

// expression AST.
type expr interface{ line() int }

type numExpr struct {
	v  int64
	ln int
}
type identExpr struct {
	name string
	ln   int
}
type binExpr struct {
	op   string
	l, r expr
	ln   int
}
type callExpr struct {
	fn   string
	args []expr
	ln   int
}

func (e *numExpr) line() int   { return e.ln }
func (e *identExpr) line() int { return e.ln }
func (e *binExpr) line() int   { return e.ln }
func (e *callExpr) line() int  { return e.ln }

// statement AST.
type stmt struct {
	kind string // "iv", "walk", "const", "assign", "store"
	name string
	a, b int64  // iv base/step, walk step/limit, const value
	lhs  string // assign target
	rhs  expr   // assign value / store value
	addr expr   // store address
	ln   int
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes and returns the current token. It never steps past the
// EOF token, so a truncated source keeps reading EOF and fails with an
// error instead of indexing beyond the token slice.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.next()
	if t.kind != kind || (text != "" && t.text != text) {
		return t, fmt.Errorf("lang: line %d: expected %q, found %q", t.line, text, t.text)
	}
	return t, nil
}

func (p *parser) skipNewlines() {
	for p.cur().kind == tokNewline {
		p.pos++
	}
}

// parse builds the statement list from tokens.
func parse(toks []token) (string, []stmt, error) {
	p := &parser{toks: toks}
	p.skipNewlines()
	if _, err := p.expect(tokIdent, "kernel"); err != nil {
		return "", nil, err
	}
	nameTok, err := p.expect(tokIdent, "")
	if err != nil {
		return "", nil, fmt.Errorf("lang: line %d: kernel name expected", p.cur().line)
	}
	var stmts []stmt
	for {
		p.skipNewlines()
		if p.cur().kind == tokEOF {
			break
		}
		s, err := p.parseStmt()
		if err != nil {
			return "", nil, err
		}
		stmts = append(stmts, s)
		if p.cur().kind != tokNewline && p.cur().kind != tokEOF {
			return "", nil, fmt.Errorf("lang: line %d: unexpected %q after statement", p.cur().line, p.cur().text)
		}
	}
	return nameTok.text, stmts, nil
}

func (p *parser) parseStmt() (stmt, error) {
	t := p.next()
	if t.kind != tokIdent {
		return stmt{}, fmt.Errorf("lang: line %d: statement must start with a word, found %q", t.line, t.text)
	}
	switch t.text {
	case "iv", "walk":
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return stmt{}, err
		}
		a, err := p.parseNum()
		if err != nil {
			return stmt{}, err
		}
		b, err := p.parseNum()
		if err != nil {
			return stmt{}, err
		}
		return stmt{kind: t.text, name: name.text, a: a, b: b, ln: t.line}, nil
	case "const":
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return stmt{}, err
		}
		a, err := p.parseNum()
		if err != nil {
			return stmt{}, err
		}
		return stmt{kind: "const", name: name.text, a: a, ln: t.line}, nil
	case "store":
		if _, err := p.expect(tokPunct, "("); err != nil {
			return stmt{}, err
		}
		addr, err := p.parseExpr(0)
		if err != nil {
			return stmt{}, err
		}
		if _, err := p.expect(tokPunct, ","); err != nil {
			return stmt{}, err
		}
		val, err := p.parseExpr(0)
		if err != nil {
			return stmt{}, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return stmt{}, err
		}
		return stmt{kind: "store", addr: addr, rhs: val, ln: t.line}, nil
	default:
		// assignment: name = expr
		if _, err := p.expect(tokPunct, "="); err != nil {
			return stmt{}, fmt.Errorf("lang: line %d: expected '=' after %q", t.line, t.text)
		}
		rhs, err := p.parseExpr(0)
		if err != nil {
			return stmt{}, err
		}
		return stmt{kind: "assign", lhs: t.text, rhs: rhs, ln: t.line}, nil
	}
}

func (p *parser) parseNum() (int64, error) {
	t := p.next()
	if t.kind != tokNum {
		return 0, fmt.Errorf("lang: line %d: number expected, found %q", t.line, t.text)
	}
	return strconv.ParseInt(t.text, 10, 64)
}

// Operator precedence (loosest to tightest): | ^ & , comparisons, shifts,
// + -, *.
var precOf = map[string]int{
	"|": 1, "^": 2, "&": 3,
	"<": 4, ">": 4, "==": 4,
	"<<": 5, ">>": 5,
	"+": 6, "-": 6,
	"*": 7,
}

func (p *parser) parseExpr(minPrec int) (expr, error) {
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			break
		}
		prec, ok := precOf[t.text]
		if !ok || prec < minPrec {
			break
		}
		p.pos++
		rhs, err := p.parseExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binExpr{op: t.text, l: lhs, r: rhs, ln: t.line}
	}
	return lhs, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.next()
	switch {
	case t.kind == tokNum:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("lang: line %d: bad number %q", t.line, t.text)
		}
		return &numExpr{v: v, ln: t.line}, nil
	case t.kind == tokPunct && t.text == "(":
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		if p.cur().kind == tokPunct && p.cur().text == "(" {
			p.pos++
			var args []expr
			for {
				if p.cur().kind == tokPunct && p.cur().text == ")" {
					p.pos++
					break
				}
				a, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.cur().kind == tokPunct && p.cur().text == "," {
					p.pos++
				}
			}
			return &callExpr{fn: t.text, args: args, ln: t.line}, nil
		}
		return &identExpr{name: t.text, ln: t.line}, nil
	default:
		return nil, fmt.Errorf("lang: line %d: unexpected %q in expression", t.line, t.text)
	}
}

// fixup is a loop-carried reference resolved after all statements lower.
type fixup struct {
	consumer graph.NodeID
	port     int
	name     string
	dist     int
	ln       int
}

type compiler struct {
	d      *ddg.DDG
	names  map[string]graph.NodeID
	consts map[int64]graph.NodeID
	fixups []fixup
}

// Compile parses and lowers a kernel description into a validated DDG.
func Compile(src string) (*ddg.DDG, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	name, stmts, err := parse(toks)
	if err != nil {
		return nil, err
	}
	c := &compiler{
		d:      ddg.New(name),
		names:  map[string]graph.NodeID{},
		consts: map[int64]graph.NodeID{},
	}
	for _, s := range stmts {
		if err := c.lowerStmt(s); err != nil {
			return nil, err
		}
	}
	for _, f := range c.fixups {
		prod, ok := c.names[f.name]
		if !ok {
			return nil, fmt.Errorf("lang: line %d: prev(%s, %d): name never defined", f.ln, f.name, f.dist)
		}
		c.d.AddDep(prod, f.consumer, f.port, f.dist)
	}
	if err := c.d.Validate(); err != nil {
		return nil, fmt.Errorf("lang: %v", err)
	}
	return c.d, nil
}

func (c *compiler) define(name string, n graph.NodeID, ln int) error {
	if _, dup := c.names[name]; dup {
		return fmt.Errorf("lang: line %d: %q already defined", ln, name)
	}
	c.names[name] = n
	return nil
}

func (c *compiler) lowerStmt(s stmt) error {
	switch s.kind {
	case "iv":
		return c.define(s.name, c.d.AddIV(s.a, s.b, s.name), s.ln)
	case "const":
		return c.define(s.name, c.d.AddConst(s.a, s.name), s.ln)
	case "walk":
		// sel = (sel@-1 + step < limit) ? sel@-1+step : 0, init -step so
		// the first iteration lands on 0.
		zero := c.constNode(0)
		nb := c.d.AddOpImm(ddg.OpAdd, s.name+"_nb", s.a)
		w := c.d.AddOpImm(ddg.OpCmpLT, s.name+"_w", s.b)
		sel := c.d.AddOp(ddg.OpSelect, s.name)
		c.d.AddDep(sel, nb, 0, 1)
		c.d.AddDep(nb, w, 0, 0)
		c.d.AddDep(w, sel, 0, 0)
		c.d.AddDep(nb, sel, 1, 0)
		c.d.AddDep(zero, sel, 2, 0)
		c.d.SetInit(sel, -s.a)
		return c.define(s.name, sel, s.ln)
	case "assign":
		n, err := c.lowerExpr(s.rhs)
		if err != nil {
			return err
		}
		// A bare literal or re-aliased name still needs its own node only
		// when it IS one; aliasing an existing node under a new name is
		// fine for everything downstream.
		return c.define(s.lhs, n, s.ln)
	case "store":
		addr, err := c.lowerExpr(s.addr)
		if err != nil {
			return err
		}
		val, err := c.lowerExpr(s.rhs)
		if err != nil {
			return err
		}
		st := c.d.AddOp(ddg.OpStore, "store")
		c.d.AddDep(addr, st, 0, 0)
		c.d.AddDep(val, st, 1, 0)
		return nil
	default:
		return fmt.Errorf("lang: line %d: unknown statement kind %q", s.ln, s.kind)
	}
}

func (c *compiler) constNode(v int64) graph.NodeID {
	if n, ok := c.consts[v]; ok {
		return n
	}
	n := c.d.AddConst(v, fmt.Sprintf("c%d", v))
	c.consts[v] = n
	return n
}

var binOps = map[string]ddg.Op{
	"+": ddg.OpAdd, "-": ddg.OpSub, "*": ddg.OpMul,
	"<<": ddg.OpShl, ">>": ddg.OpShr,
	"&": ddg.OpAnd, "|": ddg.OpOr, "^": ddg.OpXor,
	"<": ddg.OpCmpLT, ">": ddg.OpCmpGT, "==": ddg.OpCmpEQ,
}

var callOps = map[string]struct {
	op    ddg.Op
	arity int
}{
	"load":   {ddg.OpLoad, 1},
	"abs":    {ddg.OpAbs, 1},
	"min":    {ddg.OpMin, 2},
	"max":    {ddg.OpMax, 2},
	"select": {ddg.OpSelect, 3},
	"clip":   {ddg.OpClip, 3},
}

func (c *compiler) lowerExpr(e expr) (graph.NodeID, error) {
	switch ex := e.(type) {
	case *numExpr:
		return c.constNode(ex.v), nil
	case *identExpr:
		n, ok := c.names[ex.name]
		if !ok {
			return 0, fmt.Errorf("lang: line %d: undefined name %q", ex.ln, ex.name)
		}
		return n, nil
	case *binExpr:
		op, ok := binOps[ex.op]
		if !ok {
			return 0, fmt.Errorf("lang: line %d: unsupported operator %q", ex.ln, ex.op)
		}
		// Fold a literal right operand into an immediate form.
		if num, isNum := ex.r.(*numExpr); isNum {
			l, err := c.lowerExpr(ex.l)
			if err != nil {
				return 0, err
			}
			n := c.d.AddOpImm(op, "", num.v)
			c.d.AddDep(l, n, 0, 0)
			return n, nil
		}
		l, err := c.lowerExpr(ex.l)
		if err != nil {
			return 0, err
		}
		r, err := c.lowerExpr(ex.r)
		if err != nil {
			return 0, err
		}
		n := c.d.AddOp(op, "")
		c.d.AddDep(l, n, 0, 0)
		c.d.AddDep(r, n, 1, 0)
		return n, nil
	case *callExpr:
		if ex.fn == "prev" {
			return c.lowerPrev(ex)
		}
		spec, ok := callOps[ex.fn]
		if !ok {
			return 0, fmt.Errorf("lang: line %d: unknown function %q", ex.ln, ex.fn)
		}
		if len(ex.args) != spec.arity {
			return 0, fmt.Errorf("lang: line %d: %s takes %d arguments, got %d", ex.ln, ex.fn, spec.arity, len(ex.args))
		}
		// clip's last argument folds into an immediate when literal.
		if spec.op == ddg.OpClip {
			if hi, isNum := ex.args[2].(*numExpr); isNum {
				x, err := c.lowerExpr(ex.args[0])
				if err != nil {
					return 0, err
				}
				lo, err := c.lowerExpr(ex.args[1])
				if err != nil {
					return 0, err
				}
				n := c.d.AddOpImm(ddg.OpClip, "", hi.v)
				c.d.AddDep(x, n, 0, 0)
				c.d.AddDep(lo, n, 1, 0)
				return n, nil
			}
		}
		n := c.d.AddOp(spec.op, "")
		for i, a := range ex.args {
			an, err := c.lowerExpr(a)
			if err != nil {
				return 0, err
			}
			c.d.AddDep(an, n, i, 0)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("lang: internal: unknown expression %T", e)
	}
}

// lowerPrev handles prev(name, dist): a loop-carried read of a named
// value. It lowers to a mov fed by a deferred loop-carried edge, so the
// referenced name may be defined later (or be the enclosing assignment
// itself, as in accumulators).
func (c *compiler) lowerPrev(ex *callExpr) (graph.NodeID, error) {
	if len(ex.args) != 2 {
		return 0, fmt.Errorf("lang: line %d: prev takes (name, distance)", ex.ln)
	}
	id, ok := ex.args[0].(*identExpr)
	if !ok {
		return 0, fmt.Errorf("lang: line %d: prev's first argument must be a name", ex.ln)
	}
	num, ok := ex.args[1].(*numExpr)
	if !ok || num.v < 1 {
		return 0, fmt.Errorf("lang: line %d: prev's distance must be a positive literal", ex.ln)
	}
	mv := c.d.AddOp(ddg.OpMov, "prev_"+id.name)
	c.fixups = append(c.fixups, fixup{consumer: mv, port: 0, name: id.name, dist: int(num.v), ln: ex.ln})
	return mv, nil
}
