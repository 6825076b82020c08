package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FrozenWrite enforces published-snapshot immutability.
//
// The server's freeze-and-swap memory model (DESIGN §8) publishes serving
// state through an atomic.Pointer: queries load the pointer once and read
// the snapshot without synchronization, which is only sound because a
// snapshot is never written after the single atomic publish. The type
// system cannot express "immutable after construction", so this analyzer
// does: a type is *frozen* when it appears as the type argument of an
// atomic.Pointer[T] anywhere in its package, or when its declaration
// carries a //cws:frozen annotation (used for the satellite state a
// snapshot links to, like the per-window core.Merged). Field writes
// to a frozen type (x.f = v, x.f += v, x.f++) are permitted only inside
// functions that return the type — its constructors and freeze builders —
// or at lines annotated
//
//	//cws:allow-mutation <reason>
//
// Internally synchronized mutable state hanging off a snapshot stays
// expressible: map inserts into mutex-guarded memos are not field writes,
// a lazily filled part (core.Merged's per-assignment slot, a sketch's key
// order) is a type of its own, and mutex fields are never reassigned.
var FrozenWrite = &Analyzer{
	Name: "frozenwrite",
	Doc:  "flag field writes to atomic.Pointer-published (or //cws:frozen) types outside their constructors",
	Run:  runFrozenWrite,
}

func runFrozenWrite(p *Pass) {
	frozen := p.frozenTypes()
	if len(frozen) == 0 {
		p.CheckDirectives("allow-mutation")
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkFuncWrites(fd, frozen)
		}
	}
	p.CheckDirectives("allow-mutation")
}

// frozenTypes collects the package's frozen named types: atomic.Pointer
// type arguments plus //cws:frozen-annotated declarations.
func (p *Pass) frozenTypes() map[*types.Named]bool {
	frozen := make(map[*types.Named]bool)
	// Any atomic.Pointer[T] type expression in the package (field
	// declarations, variables, composite literals) freezes T.
	for _, tv := range p.Info.Types {
		named := atomicPointerArg(tv.Type)
		if named != nil && named.Obj().Pkg() == p.Pkg {
			frozen[named] = true
		}
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !p.TypeAnnotated(gd, ts, "frozen") {
					continue
				}
				if obj, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
					if named, ok := obj.Type().(*types.Named); ok {
						frozen[named] = true
					}
				}
			}
		}
	}
	return frozen
}

// atomicPointerArg returns T when t is sync/atomic.Pointer[T] (or *...), and
// nil otherwise.
func atomicPointerArg(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
		return nil
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	arg := args.At(0)
	if ptr, ok := arg.(*types.Pointer); ok {
		arg = ptr.Elem()
	}
	argNamed, _ := arg.(*types.Named)
	return argNamed
}

// checkFuncWrites flags frozen-type field writes in one function, unless
// the function's results include the frozen type (constructor/builder).
func (p *Pass) checkFuncWrites(fd *ast.FuncDecl, frozen map[*types.Named]bool) {
	constructs := make(map[*types.Named]bool)
	if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		// .Type() rather than .Signature(): the latter needs go ≥ 1.23 and
		// CI type-checks this package with the module's go 1.22.
		sig := obj.Type().(*types.Signature)
		for i := 0; i < sig.Results().Len(); i++ {
			t := sig.Results().At(i).Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && frozen[named] {
				constructs[named] = true
			}
		}
	}
	report := func(sel *ast.SelectorExpr) {
		named := frozenReceiver(p, sel, frozen)
		if named == nil || constructs[named] {
			return
		}
		if p.Allowed(sel.Pos(), "allow-mutation") {
			return
		}
		p.Reportf(sel.Pos(), "write to field %s of %s, which is published via atomic.Pointer snapshots and must not be mutated outside its constructors (%s does not return %[2]s); move the write into the builder, or annotate with //cws:allow-mutation <reason>",
			sel.Sel.Name, named.Obj().Name(), funcDisplayName(p, fd))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			// Plain and compound assignment, including multi-assign; := never
			// has a selector LHS.
			for _, lhs := range stmt.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					report(sel)
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(stmt.X).(*ast.SelectorExpr); ok {
				report(sel)
			}
		}
		return true
	})
}

// frozenReceiver returns the frozen named type of x in a field write x.f,
// or nil when x's type is not frozen or f is not a field.
func frozenReceiver(p *Pass, sel *ast.SelectorExpr, frozen map[*types.Named]bool) *types.Named {
	if p.fieldOf(sel) == nil {
		return nil
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !frozen[named] {
		return nil
	}
	return named
}

// fieldOf resolves a selector expression to the struct field it selects, or
// nil when it selects something else (a method, a package member).
func (p *Pass) fieldOf(sel *ast.SelectorExpr) *types.Var {
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	field, _ := selection.Obj().(*types.Var)
	return field
}

// funcDisplayName renders a function or method the way diagnostics name
// it: Name, T.Name, or (*T).Name.
func funcDisplayName(p *Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	var b strings.Builder
	if star, ok := t.(*ast.StarExpr); ok {
		b.WriteString("(*")
		b.WriteString(typeExprName(star.X))
		b.WriteString(")")
	} else {
		b.WriteString(typeExprName(t))
	}
	b.WriteString(".")
	b.WriteString(fd.Name.Name)
	return b.String()
}

// typeExprName renders a receiver base type expression (Ident or generic
// IndexExpr) as its bare name.
func typeExprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return typeExprName(e.X)
	case *ast.IndexListExpr:
		return typeExprName(e.X)
	default:
		return "?"
	}
}
