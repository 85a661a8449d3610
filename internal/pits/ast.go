package pits

// The AST of a PITS routine. Nodes carry their source line for error
// reporting and cost attribution.

// Program is a parsed PITS routine.
type Program struct {
	Stmts []Stmt
	// Source is the original text, retained for display in the
	// calculator panel's program window.
	Source string

	// The compiled form (compile.go), made once by Parse.
	code   []instr
	entry  int // the routine's first instruction, after the formula bodies
	consts []Value
	names  []string // variables, by slot
	fns    []Builtin
	fnames []string // formula names, by index
	defs   []formulaDef
	fails  []RuntimeError
	nregs  int32
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// Expr is an expression node.
type Expr interface{ exprNode() }

// Assign is "name = expr" or "name[index] = expr".
type Assign struct {
	Name  string
	Index Expr // nil for scalar assignment
	Value Expr
	Line  int
}

// If is "if cond then ... {elseif cond then ...} [else ...] end".
// Elifs are desugared by the parser into nested Ifs, so an If has at
// most one Else branch.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // may be nil
	Line int
}

// While is "while cond do ... end".
type While struct {
	Cond Expr
	Body []Stmt
	Line int
}

// Repeat is "repeat n do ... end" — n evaluated once.
type Repeat struct {
	Count Expr
	Body  []Stmt
	Line  int
}

// For is "for i = a to b [step s] do ... end" with inclusive bounds.
type For struct {
	Var  string
	From Expr
	To   Expr
	Step Expr // nil means 1
	Body []Stmt
	Line int
}

// Print is "print e1, e2, ...".
type Print struct {
	Args []Expr
	Line int
}

// Formula is "formula name(p1, p2) = expr" — a pure, single-expression
// user-defined function (the calculator's formula keys). Formulas may
// only appear at the top level of a routine, before their first use,
// and their bodies see only the parameters and the constants.
type Formula struct {
	Name   string
	Params []string
	Body   Expr
	Line   int
}

func (*Assign) stmtNode()  {}
func (*If) stmtNode()      {}
func (*While) stmtNode()   {}
func (*Repeat) stmtNode()  {}
func (*For) stmtNode()     {}
func (*Print) stmtNode()   {}
func (*Formula) stmtNode() {}

// Number is a numeric literal.
type Number struct {
	Value float64
	Line  int
}

// Str is a string literal (print-only in practice).
type Str struct {
	Value string
	Line  int
}

// Bool is "true" or "false".
type Bool struct {
	Value bool
	Line  int
}

// Var references a variable.
type Var struct {
	Name string
	Line int
}

// Index is "base[index]" with 1-based indices (scientific convention).
type Index struct {
	Base  Expr
	Index Expr
	Line  int
}

// VecLit is "[e1, e2, ...]".
type VecLit struct {
	Elems []Expr
	Line  int
}

// Call is "fn(args...)" where fn is a builtin function name.
type Call struct {
	Fn   string
	Args []Expr
	Line int
}

// Unary is "-x" or "not x".
type Unary struct {
	Op   TokKind // TokMinus or TokNot
	X    Expr
	Line int
}

// Binary is "x op y" for arithmetic, comparison and logical operators.
type Binary struct {
	Op   TokKind
	X, Y Expr
	Line int
}

func (*Number) exprNode() {}
func (*Str) exprNode()    {}
func (*Bool) exprNode()   {}
func (*Var) exprNode()    {}
func (*Index) exprNode()  {}
func (*VecLit) exprNode() {}
func (*Call) exprNode()   {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
