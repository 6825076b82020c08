package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath enforces the PR-4 zero-allocation ingest contract statically.
//
// The benchmarks assert 0 allocs/op through Sketcher.Offer and the binary
// /ingest decode loop, but AllocsPerRun only covers the paths the benchmark
// drives; a new branch that boxes an interface or builds a closure regresses
// the contract invisibly until the next benchmark run. This analyzer makes
// the contract a compile-time property: a function annotated
//
//	//cws:hotpath
//
// and everything it reaches through static calls inside its package is
// checked for allocation-prone constructs (closures, make/new/append,
// map and slice literals, string<->[]byte conversions, interface-boxing
// arguments, calls into formatting packages or allocating constructors),
// mutex operations, and channel sends. defer and go statements are flagged
// unconditionally. All other constructs are exempt on *cold* branches — an
// if (or switch case) body that ends by returning, panicking, or
// continuing, which is where the fast path's error handling and slow-path
// spills live.
//
// Deliberate exceptions — the amortized batch append, the flush-boundary
// mutex — carry //cws:allow-alloc <reason> at the construct's line.
//
// Deleting a //cws:hotpath annotation is itself an error for the functions
// on the requiredHot manifest below: the admission primitives in
// rank/hashing, BottomKBuilder's offer surface, the lane entry point and its
// staging, and the server's binary decode loop and flush must stay under
// contract.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation-prone constructs, mutex ops, and channel sends in //cws:hotpath functions and their package-local callees",
	Run:  runHotPath,
}

// requiredHot is the manifest of functions that must carry //cws:hotpath,
// keyed by package-path suffix, valued by funcDisplayName. It applies only
// to this module's real packages (import paths under "coordsample/"), so
// testdata fixtures never trip it. A manifest entry naming a function that
// no longer exists is inert — renames are audited by review, not by vet.
var requiredHot = map[string][]string{
	"internal/hashing": {"Hash64", "Mix64", "Unit", "ShardHash"},
	"internal/rank":    {"Family.Quantile", "Family.RejectsSeed", "Family.SeedMayRankBelow"},
	"internal/sketch":  {"(*BottomKBuilder).Offer", "(*BottomKBuilder).AdmissionThreshold", "(*BottomKBuilder).NoteRejected", "(*BottomKBuilder).Len"},
	"internal/shard": {
		"offer", "Stage", "(*Sketcher).lower", "(*Sketcher).AdmissionThreshold",
		"(*Sketcher).Offer",
		"(*Lane).Offer", "(*Lane).OfferBatch", "(*Lane).TakeCounts",
		"(*MultiSketcher).Offer", "(*MultiSketcher).OfferVector",
		"(*MultiLane).Offer", "(*MultiLane).OfferBatch", "(*MultiLane).OfferVector",
		"(*MultiLane).OfferStaged", "(*MultiLane).TakeCounts",
		"(*Staged).Len", "(*Staged).ArenaLen", "(*Staged).Reset",
	},
	"internal/server": {
		"(*Server).ingestBinary", "stage", "(*ingestState).flush",
		"(*epochIngest).acquire", "(*laneSlot).publish",
	},
	"internal/obs": {"(*Histogram).Record", "bucketIndex"},
}

// hotSafePkgs are packages whose calls are presumed allocation-free on the
// hot path: arithmetic, bit manipulation, fixed-width codecs, buffered
// reads. Their "New*" constructors are still flagged (they allocate by
// design), as is sync outside Pool.Get/Put.
var hotSafePkgs = map[string]bool{
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true,
	"io":              true,
	"bufio":           true,
	"unicode/utf8":    true,
}

func runHotPath(p *Pass) {
	required := p.requiredHotNames()

	// Roots: annotated functions. Also enforce the manifest while scanning.
	hot := make(map[*ast.FuncDecl]bool)
	var order []*ast.FuncDecl // file order, for deterministic diagnostics
	var worklist []*ast.FuncDecl
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			annotated := p.FuncAnnotated(fd, "hotpath")
			if required[funcDisplayName(p, fd)] && !annotated {
				p.Reportf(fd.Pos(), "%s is on the hot-path manifest (the zero-allocation ingest contract, DESIGN §10) and must carry a //cws:hotpath annotation; restore the annotation rather than silently retiring the contract", funcDisplayName(p, fd))
			}
			if annotated && fd.Body != nil {
				hot[fd] = true
				worklist = append(worklist, fd)
			}
		}
	}

	// Transitive closure over package-local static calls: a helper reached
	// from hot code is hot, whether or not it is annotated itself.
	for len(worklist) > 0 {
		fd := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // the closure itself is flagged; its body runs elsewhere
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.callee(call)
			if fn == nil || fn.Pkg() != p.Pkg {
				return true
			}
			if d := p.decl(fn); d != nil && d.Body != nil && !hot[d] {
				hot[d] = true
				worklist = append(worklist, d)
			}
			return true
		})
	}

	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hot[fd] {
				order = append(order, fd)
			}
		}
	}
	for _, fd := range order {
		p.checkHotFunc(fd)
	}
	p.CheckDirectives("allow-alloc")
}

// requiredHotNames returns the manifest entries applying to this package, or
// nil for packages outside the module.
func (p *Pass) requiredHotNames() map[string]bool {
	if p.Pkg == nil || !strings.HasPrefix(p.Pkg.Path(), "coordsample/") {
		return nil
	}
	names := make(map[string]bool)
	for suffix, list := range requiredHot {
		if !pkgPathIs(p.Pkg, suffix) {
			continue
		}
		for _, name := range list {
			names[name] = true
		}
	}
	return names
}

// checkHotFunc flags the forbidden constructs in one hot function.
func (p *Pass) checkHotFunc(fd *ast.FuncDecl) {
	cold := coldRanges(fd.Body)
	isCold := func(pos token.Pos) bool {
		for _, r := range cold {
			if r.from <= pos && pos < r.to {
				return true
			}
		}
		return false
	}
	name := funcDisplayName(p, fd)
	flag := func(pos token.Pos, format string, args ...any) {
		if p.Allowed(pos, "allow-alloc") {
			return
		}
		args = append(args, name)
		p.Reportf(pos, format+" in hot-path function %s; move it off the fast path, or annotate with //cws:allow-alloc <reason>", args...)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer and go are flagged even on cold branches: one defer
			// anywhere forces the function's frame into deferred-call
			// bookkeeping on every invocation, hot or not.
			flag(n.Pos(), "defer")
			return true
		case *ast.GoStmt:
			flag(n.Pos(), "go statement (goroutine spawn)")
			return true
		case *ast.FuncLit:
			if !isCold(n.Pos()) {
				flag(n.Pos(), "closure allocation")
			}
			return false // its body executes outside this call's budget
		case *ast.SendStmt:
			if !isCold(n.Pos()) {
				flag(n.Pos(), "channel send (blocks on a full channel)")
			}
			return true
		case *ast.CompositeLit:
			if isCold(n.Pos()) {
				return true
			}
			if tv, ok := p.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					flag(n.Pos(), "map literal allocation")
				case *types.Slice:
					flag(n.Pos(), "slice literal allocation")
				}
			}
			return true
		case *ast.CallExpr:
			p.checkHotCall(n, isCold, flag)
			return true
		}
		return true
	})
}

// checkHotCall classifies one call inside a hot function.
func (p *Pass) checkHotCall(call *ast.CallExpr, isCold func(token.Pos) bool, flag func(token.Pos, string, ...any)) {
	if isCold(call.Pos()) {
		return
	}
	// Conversions: string <-> []byte/[]rune copy and allocate.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if stringBytesConversion(tv.Type, p.Info.Types[call.Args[0]].Type) {
			flag(call.Pos(), "string/[]byte conversion (copies and allocates)")
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call.Pos(), "make")
			case "new":
				flag(call.Pos(), "new")
			case "append":
				flag(call.Pos(), "append (may grow and reallocate)")
			}
			return
		}
	}
	fn := p.callee(call)
	if fn == nil || fn.Pkg() == nil {
		return // function-value call or universe builtin; nothing resolvable
	}
	p.checkHotCallArgs(call, fn, flag)
	if fn.Pkg() == p.Pkg {
		return // covered by the transitive closure
	}
	path := fn.Pkg().Path()
	switch {
	case path == "sync":
		recv := recvTypeName(fn)
		switch {
		case recv == "Pool" && (fn.Name() == "Get" || fn.Name() == "Put"):
			// sync.Pool is the sanctioned amortization mechanism.
		case (recv == "Mutex" || recv == "RWMutex") && strings.Contains(strings.ToLower(fn.Name()), "lock"):
			flag(call.Pos(), "mutex %s.%s", recv, fn.Name())
		default:
			flag(call.Pos(), "call to sync.%s", fn.Name())
		}
	case hotSafePkgs[path]:
		if strings.HasPrefix(fn.Name(), "New") {
			flag(call.Pos(), "allocating constructor %s.%s", fn.Pkg().Name(), fn.Name())
		}
	case manifestHot(fn):
		// A declared hot-path primitive in another module package; its own
		// package's hotpath pass checks its body.
	case strings.HasPrefix(path, "coordsample/"):
		flag(call.Pos(), "call to %s.%s, which is not on the hot-path manifest", fn.Pkg().Name(), fn.Name())
	default:
		flag(call.Pos(), "call to %s.%s", fn.Pkg().Name(), fn.Name())
	}
}

// checkHotCallArgs flags arguments boxed into interface parameters — the
// conversion heap-allocates for non-pointer values.
func (p *Pass) checkHotCallArgs(call *ast.CallExpr, fn *types.Func, flag func(token.Pos, string, ...any)) {
	// .Type() rather than .Signature(): the latter needs go >= 1.23 and CI
	// type-checks this package with the module's go 1.22.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // a spread slice is passed as-is, no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice)
			if !ok {
				return
			}
			param = s.Elem()
		case i < params.Len():
			param = params.At(i).Type()
		default:
			return
		}
		if _, ok := param.(*types.TypeParam); ok {
			continue // a type parameter's underlying type is its constraint, but the argument is passed as itself
		}
		if _, ok := param.Underlying().(*types.Interface); !ok {
			continue
		}
		tv, ok := p.Info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		at := tv.Type
		if _, ok := at.Underlying().(*types.Interface); ok {
			continue // interface to interface: no boxing
		}
		if _, ok := at.Underlying().(*types.Pointer); ok {
			continue // pointers fit the interface data word
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		flag(arg.Pos(), "argument boxed into interface parameter of %s.%s", pkgNameOf(fn), fn.Name())
	}
}

func pkgNameOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return "?"
	}
	return fn.Pkg().Name()
}

// manifestHot reports whether a cross-package callee is a declared hot-path
// primitive (on the requiredHot manifest of its own module package).
func manifestHot(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || !strings.HasPrefix(pkg.Path(), "coordsample/") {
		return false
	}
	display := typesFuncDisplayName(fn)
	for suffix, list := range requiredHot {
		if !pkgPathIs(pkg, suffix) {
			continue
		}
		for _, name := range list {
			if name == display {
				return true
			}
		}
	}
	return false
}

// typesFuncDisplayName is funcDisplayName for a *types.Func (cross-package
// callees have no AST in this pass).
func typesFuncDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	return recvDisplay(sig.Recv().Type()) + "." + fn.Name()
}

func recvDisplay(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		return "(*" + bareTypeName(ptr.Elem()) + ")"
	}
	return bareTypeName(t)
}

func bareTypeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// recvTypeName returns the bare receiver type name of a method, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return bareTypeName(t)
}

// stringBytesConversion reports whether a conversion to dst from src is a
// string <-> []byte/[]rune copy — for a type-parameter operand, whether it
// is one for some type in the parameter's type set (string(key) with key
// of type K constrained by string | []byte copies when K is []byte).
func stringBytesConversion(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	return (typeSetHas(dst, isString) && typeSetHas(src, isByteOrRuneSlice)) ||
		(typeSetHas(dst, isByteOrRuneSlice) && typeSetHas(src, isString))
}

// typeSetHas reports whether t — or, when t is a type parameter, some term
// of its constraint's unions — satisfies is.
func typeSetHas(t types.Type, is func(types.Type) bool) bool {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return is(t)
	}
	iface, ok := tp.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		union, ok := iface.EmbeddedType(i).(*types.Union)
		if !ok {
			continue
		}
		for j := 0; j < union.Len(); j++ {
			if is(union.Term(j).Type()) {
				return true
			}
		}
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// span is a half-open position range.
type span struct{ from, to token.Pos }

// coldRanges collects the body's cold regions: if-statement and switch-case
// bodies that terminate in return, panic, continue, or break — the error
// handling and slow-path spills interleaved with the fast path.
func coldRanges(body *ast.BlockStmt) []span {
	var cold []span
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if blockTerminates(n.Body.List) {
				cold = append(cold, span{n.Body.Pos(), n.Body.End()})
			}
			if els, ok := n.Else.(*ast.BlockStmt); ok && blockTerminates(els.List) {
				cold = append(cold, span{els.Pos(), els.End()})
			}
		case *ast.CaseClause:
			if blockTerminates(n.Body) {
				from := n.Colon + 1
				to := n.End()
				cold = append(cold, span{from, to})
			}
		}
		return true
	})
	return cold
}

// blockTerminates reports whether a statement list ends by leaving the
// enclosing flow: return, panic, continue, break, or a nested block/if that
// does.
func blockTerminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
		return false
	case *ast.BlockStmt:
		return blockTerminates(last.List)
	case *ast.IfStmt:
		els, ok := last.Else.(*ast.BlockStmt)
		return ok && blockTerminates(last.Body.List) && blockTerminates(els.List)
	}
	return false
}
