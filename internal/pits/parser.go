package pits

import "sync"

// parser is a recursive-descent parser with Pratt-style expression
// precedence climbing.
type parser struct {
	toks []Token
	pos  int
}

// programs memoizes parsed routines by source text: the one program
// table behind project validation, rehearsal, code generation and
// every run session, in this process and in worker daemons alike. A
// Program is never written after parse returns it, so one *Program may
// be read from any number of goroutines. A serving process sees the
// same few hundred routine texts request after request; parsing them
// once is what makes re-opening an unchanged design cheap. Past the
// bound the table is dropped wholesale: parses are cheap to redo, and
// that keeps the bookkeeping at one length check. Errors are not
// cached.
var programsMu sync.Mutex
var programs = map[string]*Program{}

const maxPrograms = 4096

// Parse lexes and parses a PITS routine. The Program it returns is
// shared with every other caller that parses the same text and must be
// treated as read-only.
func Parse(src string) (*Program, error) {
	programsMu.Lock()
	prog, ok := programs[src]
	programsMu.Unlock()
	if ok {
		return prog, nil
	}
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	programsMu.Lock()
	if len(programs) >= maxPrograms {
		clear(programs)
	}
	programs[src] = prog
	programsMu.Unlock()
	return prog, nil
}

func parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmts, err := p.block(TokEOF)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != TokEOF {
		return nil, p.errf("unexpected %s", p.cur().Kind)
	}
	if err := rejectNestedFormulas(stmts, false); err != nil {
		return nil, err
	}
	return &Program{Stmts: stmts, Source: src}, nil
}

// rejectNestedFormulas enforces that formula definitions appear only at
// the top level of a routine.
func rejectNestedFormulas(stmts []Stmt, nested bool) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case *Formula:
			if nested {
				return errAt(st.Line, 1, "formula %q must be defined at the top level", st.Name)
			}
		case *If:
			if err := rejectNestedFormulas(st.Then, true); err != nil {
				return err
			}
			if err := rejectNestedFormulas(st.Else, true); err != nil {
				return err
			}
		case *While:
			if err := rejectNestedFormulas(st.Body, true); err != nil {
				return err
			}
		case *Repeat:
			if err := rejectNestedFormulas(st.Body, true); err != nil {
				return err
			}
		case *For:
			if err := rejectNestedFormulas(st.Body, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// MustParse is Parse that panics on error; for literal routines in
// examples and tests.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return errAt(t.Line, t.Col, format, args...)
}

func (p *parser) expect(kind TokKind) (Token, error) {
	if p.cur().Kind != kind {
		return Token{}, p.errf("expected %s, found %s", kind, p.cur().Kind)
	}
	return p.next(), nil
}

func (p *parser) skipNewlines() {
	for p.cur().Kind == TokNewline {
		p.next()
	}
}

// endStmt consumes the statement terminator (newline or EOF lookahead).
func (p *parser) endStmt() error {
	switch p.cur().Kind {
	case TokNewline:
		p.next()
		return nil
	case TokEOF, TokEnd, TokElse, TokElseif:
		return nil // block terminators end the statement implicitly
	default:
		return p.errf("expected end of statement, found %s", p.cur().Kind)
	}
}

// block parses statements until one of the stop kinds appears (the stop
// token is not consumed).
func (p *parser) block(stops ...TokKind) ([]Stmt, error) {
	stmts := []Stmt{}
	for {
		p.skipNewlines()
		k := p.cur().Kind
		for _, s := range stops {
			if k == s {
				return stmts, nil
			}
		}
		if k == TokEOF {
			return stmts, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		if err := p.endStmt(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) statement() (Stmt, error) {
	switch p.cur().Kind {
	case TokIf:
		return p.ifStmt()
	case TokWhile:
		return p.whileStmt()
	case TokRepeat:
		return p.repeatStmt()
	case TokFor:
		return p.forStmt()
	case TokPrint:
		return p.printStmt()
	case TokFormula:
		return p.formulaStmt()
	case TokIdent:
		return p.assignStmt()
	default:
		return nil, p.errf("expected a statement, found %s", p.cur().Kind)
	}
}

func (p *parser) assignStmt() (Stmt, error) {
	name := p.next()
	var index Expr
	if p.cur().Kind == TokLBracket {
		p.next()
		var err error
		index, err = p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	val, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &Assign{Name: name.Text, Index: index, Value: val, Line: name.Line}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	kw := p.next() // if / elseif
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokThen); err != nil {
		return nil, err
	}
	thenBlk, err := p.block(TokElse, TokElseif, TokEnd)
	if err != nil {
		return nil, err
	}
	node := &If{Cond: cond, Then: thenBlk, Line: kw.Line}
	switch p.cur().Kind {
	case TokElseif:
		// Desugar: elseif becomes an else branch holding a nested if;
		// the nested call consumes through the single shared 'end'.
		nested, err := p.ifStmt()
		if err != nil {
			return nil, err
		}
		node.Else = []Stmt{nested}
		return node, nil
	case TokElse:
		p.next()
		elseBlk, err := p.block(TokEnd)
		if err != nil {
			return nil, err
		}
		node.Else = elseBlk
	}
	if _, err := p.expect(TokEnd); err != nil {
		return nil, err
	}
	return node, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	kw := p.next()
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokDo); err != nil {
		return nil, err
	}
	body, err := p.block(TokEnd)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEnd); err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body, Line: kw.Line}, nil
}

func (p *parser) repeatStmt() (Stmt, error) {
	kw := p.next()
	count, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokDo); err != nil {
		return nil, err
	}
	body, err := p.block(TokEnd)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEnd); err != nil {
		return nil, err
	}
	return &Repeat{Count: count, Body: body, Line: kw.Line}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	kw := p.next()
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	from, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokTo); err != nil {
		return nil, err
	}
	to, err := p.expr()
	if err != nil {
		return nil, err
	}
	var step Expr
	if p.cur().Kind == TokStep {
		p.next()
		step, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokDo); err != nil {
		return nil, err
	}
	body, err := p.block(TokEnd)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEnd); err != nil {
		return nil, err
	}
	return &For{Var: name.Text, From: from, To: to, Step: step, Body: body, Line: kw.Line}, nil
}

func (p *parser) formulaStmt() (Stmt, error) {
	kw := p.next()
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var params []string
	if p.cur().Kind != TokRParen {
		for {
			param, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			for _, seen := range params {
				if seen == param.Text {
					return nil, errAt(param.Line, param.Col, "duplicate parameter %q", param.Text)
				}
			}
			params = append(params, param.Text)
			if p.cur().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &Formula{Name: name.Text, Params: params, Body: body, Line: kw.Line}, nil
}

func (p *parser) printStmt() (Stmt, error) {
	kw := p.next()
	var args []Expr
	if p.cur().Kind != TokNewline && p.cur().Kind != TokEOF {
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.cur().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	return &Print{Args: args, Line: kw.Line}, nil
}

// Operator precedence, loosest first.
func precedence(k TokKind) int {
	switch k {
	case TokOr:
		return 1
	case TokAnd:
		return 2
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		return 3
	case TokPlus, TokMinus:
		return 4
	case TokStar, TokSlash, TokPercent:
		return 5
	case TokCaret:
		return 6
	default:
		return 0
	}
}

func (p *parser) expr() (Expr, error) { return p.binary(1) }

func (p *parser) binary(minPrec int) (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur()
		prec := precedence(op.Kind)
		if prec < minPrec {
			return left, nil
		}
		p.next()
		// '^' is right-associative; the rest are left-associative.
		nextMin := prec + 1
		if op.Kind == TokCaret {
			nextMin = prec
		}
		right, err := p.binary(nextMin)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op.Kind, X: left, Y: right, Line: op.Line}
	}
}

func (p *parser) unary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus:
		t := p.next()
		// The operand is parsed at power precedence so that -x^2 means
		// -(x^2), the calculator convention.
		x, err := p.binary(precedence(TokCaret))
		if err != nil {
			return nil, err
		}
		return &Unary{Op: TokMinus, X: x, Line: t.Line}, nil
	case TokNot:
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: TokNot, X: x, Line: t.Line}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokLBracket {
		t := p.next()
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		e = &Index{Base: e, Index: idx, Line: t.Line}
	}
	return e, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		return &Number{Value: t.Num, Line: t.Line}, nil
	case TokString:
		p.next()
		return &Str{Value: t.Text, Line: t.Line}, nil
	case TokTrue:
		p.next()
		return &Bool{Value: true, Line: t.Line}, nil
	case TokFalse:
		p.next()
		return &Bool{Value: false, Line: t.Line}, nil
	case TokIdent:
		p.next()
		if p.cur().Kind == TokLParen {
			p.next()
			var args []Expr
			if p.cur().Kind != TokRParen {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.cur().Kind != TokComma {
						break
					}
					p.next()
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &Call{Fn: t.Text, Args: args, Line: t.Line}, nil
		}
		return &Var{Name: t.Text, Line: t.Line}, nil
	case TokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokLBracket:
		p.next()
		var elems []Expr
		if p.cur().Kind != TokRBracket {
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if p.cur().Kind != TokComma {
					break
				}
				p.next()
			}
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		return &VecLit{Elems: elems, Line: t.Line}, nil
	default:
		return nil, p.errf("expected an expression, found %s", t.Kind)
	}
}

// stmtCount returns the total number of statements in the program,
// recursing into blocks; used by the calculator panel's status line.
func stmtCount(stmts []Stmt) int {
	n := 0
	for _, s := range stmts {
		n++
		switch st := s.(type) {
		case *If:
			n += stmtCount(st.Then) + stmtCount(st.Else)
		case *While:
			n += stmtCount(st.Body)
		case *Repeat:
			n += stmtCount(st.Body)
		case *For:
			n += stmtCount(st.Body)
		}
	}
	return n
}

// NumStmts reports the number of statements in the program including
// nested blocks.
func (p *Program) NumStmts() int { return stmtCount(p.Stmts) }

// String returns the canonical formatted source (see Format).
func (p *Program) String() string { return Format(p) }
