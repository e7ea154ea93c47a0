package chapel

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseDecls parses a small subset of Chapel's declaration syntax — enough
// to write the paper's data structures exactly as its figures do:
//
//	record A { a1: [1..5] real; a2: int; }
//	record B { b1: [1..4] A;   b2: int; }
//	var data: [1..3] B;
//
// Supported: record declarations with typed fields; `var name: type;`
// declarations; the primitive types int, real, bool, string(N), and
// `enum name { a, b, c }`; array types `[lo..hi] elt` with integer literal
// bounds (negative allowed); references to previously declared records and
// enums. Line comments (//) and block comments (/* */) are stripped.
//
// This is the front-end fragment of the Chapel compiler this reproduction
// substitutes: parsed types feed MetaFor/Linearize directly, so the
// translator can start from Chapel source text.
func ParseDecls(src string) (*Decls, error) {
	p := &parser{toks: lex(src)}
	d := &Decls{
		Records: map[string]*Type{},
		Enums:   map[string]*Type{},
		Vars:    map[string]*Type{},
	}
	for !p.eof() {
		switch {
		case p.accept("record"):
			if err := p.parseRecord(d); err != nil {
				return nil, err
			}
		case p.accept("enum"):
			if err := p.parseEnum(d); err != nil {
				return nil, err
			}
		case p.accept("var"), p.accept("const"):
			if err := p.parseVar(d); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("chapel: parse: unexpected %q (want record, enum, var, or const)", p.peek())
		}
	}
	return d, nil
}

// Decls is the result of ParseDecls: the declared types and variables.
type Decls struct {
	// Records maps record name → type.
	Records map[string]*Type
	// Enums maps enum name → type.
	Enums map[string]*Type
	// Vars maps variable name → declared type.
	Vars map[string]*Type
	// VarOrder lists variable names in declaration order.
	VarOrder []string
}

// Var returns the named variable's type or an error.
func (d *Decls) Var(name string) (*Type, error) {
	ty, ok := d.Vars[name]
	if !ok {
		return nil, fmt.Errorf("chapel: no declared variable %q", name)
	}
	return ty, nil
}

// lexing -------------------------------------------------------------------

// lex splits the source into tokens: identifiers/keywords, integer
// literals (with optional leading -), and single-character punctuation.
// ".." is one token.
func lex(src string) []string {
	src = stripComments(src)
	var toks []string
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '.' && i+1 < len(src) && src[i+1] == '.':
			toks = append(toks, "..")
			i += 2
		case strings.ContainsRune("{}[]():;,", c):
			toks = append(toks, string(c))
			i++
		case c == '-' || unicode.IsDigit(c):
			j := i + 1
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			toks = append(toks, string(c))
			i++
		}
	}
	return toks
}

// stripComments removes // line comments and /* */ block comments.
func stripComments(src string) string {
	var b strings.Builder
	i := 0
	for i < len(src) {
		if strings.HasPrefix(src[i:], "//") {
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		}
		if strings.HasPrefix(src[i:], "/*") {
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				i = len(src)
				continue
			}
			i += 2 + end + 2
			b.WriteByte(' ')
			continue
		}
		b.WriteByte(src[i])
		i++
	}
	return b.String()
}

// parsing ------------------------------------------------------------------

type parser struct {
	toks []string
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return "<eof>"
	}
	return p.toks[p.pos]
}

func (p *parser) accept(tok string) bool {
	if !p.eof() && p.toks[p.pos] == tok {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(tok string) error {
	if !p.accept(tok) {
		return fmt.Errorf("chapel: parse: expected %q, got %q", tok, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if p.eof() || !isIdent(t) {
		return "", fmt.Errorf("chapel: parse: expected identifier, got %q", t)
	}
	p.pos++
	return t, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	c := rune(s[0])
	return unicode.IsLetter(c) || c == '_'
}

func (p *parser) int() (int, error) {
	n, err := strconv.Atoi(p.peek())
	if err != nil {
		return 0, fmt.Errorf("chapel: parse: expected integer, got %q", p.peek())
	}
	p.pos++
	return n, nil
}

// parseRecord handles `record Name { field: type; ... }` after `record`.
func (p *parser) parseRecord(d *Decls) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := d.Records[name]; dup {
		return fmt.Errorf("chapel: parse: duplicate record %q", name)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	var fields []Field
	for !p.accept("}") {
		fname, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect(":"); err != nil {
			return err
		}
		fty, err := p.parseType(d)
		if err != nil {
			return err
		}
		if err := p.expect(";"); err != nil {
			return err
		}
		fields = append(fields, Field{Name: fname, Type: fty})
	}
	if len(fields) == 0 {
		return fmt.Errorf("chapel: parse: record %q has no fields", name)
	}
	d.Records[name] = RecordType(name, fields...)
	return nil
}

// parseEnum handles `enum Name { a, b, c };` after `enum`. The trailing
// semicolon is optional, matching Chapel.
func (p *parser) parseEnum(d *Decls) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := d.Enums[name]; dup {
		return fmt.Errorf("chapel: parse: duplicate enum %q", name)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	var consts []string
	for {
		c, err := p.ident()
		if err != nil {
			return err
		}
		consts = append(consts, c)
		if p.accept(",") {
			continue
		}
		if err := p.expect("}"); err != nil {
			return err
		}
		break
	}
	p.accept(";")
	d.Enums[name] = EnumType(name, consts...)
	return nil
}

// parseVar handles `name: type;` after `var`/`const`.
func (p *parser) parseVar(d *Decls) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := d.Vars[name]; dup {
		return fmt.Errorf("chapel: parse: duplicate variable %q", name)
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	ty, err := p.parseType(d)
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	d.Vars[name] = ty
	d.VarOrder = append(d.VarOrder, name)
	return nil
}

// parseType handles `[lo..hi] elt`, primitives, string(N), and references
// to declared records and enums.
func (p *parser) parseType(d *Decls) (*Type, error) {
	if p.accept("[") {
		lo, err := p.int()
		if err != nil {
			return nil, err
		}
		if err := p.expect(".."); err != nil {
			return nil, err
		}
		hi, err := p.int()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		if hi < lo-1 {
			return nil, fmt.Errorf("chapel: parse: invalid array domain [%d..%d]", lo, hi)
		}
		elem, err := p.parseType(d)
		if err != nil {
			return nil, err
		}
		return ArrayType(elem, lo, hi), nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch name {
	case "int":
		return IntType(), nil
	case "real":
		return RealType(), nil
	case "bool":
		return BoolType(), nil
	case "string":
		if err := p.expect("("); err != nil {
			return nil, fmt.Errorf("chapel: parse: string needs a fixed width, e.g. string(16): %w", err)
		}
		n, err := p.int()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("chapel: parse: string width must be >= 1, got %d", n)
		}
		return StringType(n), nil
	default:
		if ty, ok := d.Records[name]; ok {
			return ty, nil
		}
		if ty, ok := d.Enums[name]; ok {
			return ty, nil
		}
		return nil, fmt.Errorf("chapel: parse: unknown type %q (records and enums must be declared first)", name)
	}
}
