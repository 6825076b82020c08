package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //cws: directive vocabulary. Directives are ordinary line comments of
// the form
//
//	//cws:NAME reason...
//
// with no space between // and cws: (the Go directive convention, so gofmt
// never reflows them and godoc never renders them).
//
// One directive marks a declaration and is read from its doc comment:
//
//	//cws:frozen    on a type: published-snapshot immutability applies
//
// Two directives silence one analyzer at one line — the line of the
// flagged construct or the line immediately above it — and both REQUIRE a
// reason, which is what turns an escape hatch into an audited allowlist:
//
//	//cws:allow-mutation reason    (frozenwrite)
//	//cws:allow-untyped reason     (typederr)
const directivePrefix = "//cws:"

// directive is one parsed //cws: comment.
type directive struct {
	name   string // e.g. "frozen", "allow-mutation"
	reason string // text after the name; may be empty
	pos    token.Pos
	line   int
	used   bool // an analyzer consumed it (stale-annotation detection)
}

// annotations indexes every //cws: directive of a package by file line.
type annotations struct {
	fset   *token.FileSet
	byLine map[string][]*directive // "filename:line" -> directives
	all    []*directive
}

// parseDirective splits a comment into a //cws: directive, if it is one.
func parseDirective(c *ast.Comment) (name, reason string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, reason, _ = strings.Cut(rest, " ")
	// A linttest want expectation sharing the directive's comment is not
	// part of the reason.
	if i := strings.Index(reason, "// want "); i >= 0 {
		reason = reason[:i]
	}
	return strings.TrimSpace(name), strings.TrimSpace(reason), name != ""
}

// Annotations builds (once) and returns the package's directive index.
func (p *Pass) Annotations() *annotations {
	if p.annotations != nil {
		return p.annotations
	}
	a := &annotations{fset: p.Fset, byLine: make(map[string][]*directive)}
	for _, file := range p.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				name, reason, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d := &directive{name: name, reason: reason, pos: c.Pos(), line: pos.Line}
				key := lineKey(pos.Filename, pos.Line)
				a.byLine[key] = append(a.byLine[key], d)
				a.all = append(a.all, d)
			}
		}
	}
	p.annotations = a
	return a
}

func lineKey(filename string, line int) string {
	return filename + ":" + itoa(line)
}

// itoa avoids strconv just for line keys.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// at returns the directives with the given name on the line of pos or the
// line immediately above it.
func (a *annotations) at(pos token.Pos, name string) *directive {
	position := a.fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range a.byLine[lineKey(position.Filename, line)] {
			if d.name == name {
				return d
			}
		}
	}
	return nil
}

// Allowed reports whether an allow-directive with the given name covers pos,
// marking it used. A directive present but missing its reason does not
// silence the diagnostic; the caller reports the missing reason instead via
// CheckDirectives.
func (p *Pass) Allowed(pos token.Pos, name string) bool {
	d := p.Annotations().at(pos, name)
	if d == nil {
		return false
	}
	d.used = true
	return d.reason != ""
}

// TypeAnnotated reports whether a type declaration carries the named
// directive. The doc comment may hang on the GenDecl (single-spec decls) or
// the TypeSpec.
func (p *Pass) TypeAnnotated(gd *ast.GenDecl, spec *ast.TypeSpec, name string) bool {
	if p.declAnnotated(spec.Doc, spec.Pos(), name) {
		return true
	}
	return gd != nil && p.declAnnotated(gd.Doc, gd.Pos(), name)
}

func (p *Pass) declAnnotated(doc *ast.CommentGroup, declPos token.Pos, name string) bool {
	ann := p.Annotations()
	if doc != nil {
		for _, c := range doc.List {
			if n, _, ok := parseDirective(c); ok && n == name {
				if d := ann.at(c.Pos(), name); d != nil {
					d.used = true
				}
				return true
			}
		}
	}
	if d := ann.at(declPos, name); d != nil {
		d.used = true
		return true
	}
	return false
}

// CheckDirectives reports directives owned by this analyzer that are
// malformed (an allow-directive without a reason) or stale (an
// allow-directive that silenced nothing). Analyzers call it last, passing
// the directive names they own; each directive has exactly one owner, so
// the suite reports each problem once.
func (p *Pass) CheckDirectives(owned ...string) {
	isOwned := func(name string) bool {
		for _, o := range owned {
			if o == name {
				return true
			}
		}
		return false
	}
	for _, d := range p.Annotations().all {
		if !isOwned(d.name) {
			continue
		}
		if strings.HasPrefix(d.name, "allow-") {
			if d.reason == "" {
				p.Reportf(d.pos, "//cws:%s needs a reason: the annotation is an audited allowlist entry, not a mute button", d.name)
				continue
			}
			if !d.used {
				p.Reportf(d.pos, "stale //cws:%s annotation: nothing on this line (or the line below) is flagged by %s anymore; delete it", d.name, p.Analyzer.Name)
			}
		}
	}
}
