package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// AllRules returns the project rule set, in reporting order. The last
// three are the interprocedural rules (callgraph.go, taint.go,
// waitgraph.go): they reason over the whole-module call graph instead
// of one callsite at a time.
func AllRules() []*Rule {
	return []*Rule{
		simDeterminism,
		goroutineDiscipline,
		runnerTaskIsolation,
		mapOrderDeterminism,
		cycleAccounting,
		burstAccounting,
		errorDiscipline,
		hotPathAlloc,
		determinismTaint,
		mapOrderFlow,
		waitGraph,
	}
}

// RuleByName returns the named rule, or nil.
func RuleByName(name string) *Rule {
	for _, r := range AllRules() {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// inspect walks every file of the package under analysis.
func (c *Context) inspect(fn func(ast.Node) bool) {
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// callee resolves a call (or bare function reference) to the
// *types.Func it names, or nil for builtins, conversions, and calls of
// function-typed variables.
func callee(info *types.Info, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPath returns the defining package path of f, or "" for builtins.
func pkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isPackageFunc reports whether f is the package-level function
// path.name (methods have a receiver and never match).
func isPackageFunc(f *types.Func, path, name string) bool {
	if f == nil || f.Name() != name || pkgPath(f) != path {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ---------------------------------------------------------------------------
// Rule 1: sim-determinism

// wallClockFuncs are the time-package functions that read or depend on
// the host clock; inside simulation code they make runs unrepeatable.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors build explicitly seeded generators and are allowed;
// every other package-level math/rand function draws from the global,
// randomly seeded source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

var simDeterminism = &Rule{
	Name: "sim-determinism",
	Doc: "flags wall-clock time (time.Now/Since/...), globally seeded math/rand use, " +
		"and select statements with multiple communication cases inside internal/ " +
		"packages — all three make simulation runs non-reproducible",
	Run: func(c *Context) {
		if !strings.HasPrefix(c.Pkg.ImportPath, c.Module.Path+"/internal/") {
			return
		}
		c.inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				f, ok := c.Pkg.Info.Uses[n.Sel].(*types.Func)
				if !ok {
					return true
				}
				switch path := pkgPath(f); path {
				case "time":
					if wallClockFuncs[f.Name()] && isPackageFunc(f, path, f.Name()) {
						c.Reportf(n.Pos(), "time.%s is host wall-clock time: simulation code must use sim cycle time (Kernel.Now/Proc.Now) so runs are reproducible", f.Name())
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[f.Name()] && isPackageFunc(f, path, f.Name()) {
						c.Reportf(n.Pos(), "%s.%s draws from the globally (randomly) seeded source: use rand.New with a fixed seed or a deterministic sequence", path, f.Name())
					}
				}
			case *ast.SelectStmt:
				comm := 0
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					c.Reportf(n.Pos(), "select with %d communication cases is resolved pseudo-randomly by the runtime when several are ready: use sim.Proc.WaitAny (deterministic, lowest index wins) or restructure", comm)
				}
			}
			return true
		})
	},
}

// ---------------------------------------------------------------------------
// Rule 2: goroutine-discipline

var goroutineDiscipline = &Rule{
	Name: "goroutine-discipline",
	Doc: "flags raw go statements everywhere except inside internal/sim (the kernel's " +
		"own process machinery) and internal/runner (the one sanctioned host-level " +
		"fan-out point, which runs whole independent kernels on worker goroutines): " +
		"anywhere else a raw goroutine runs concurrently with a kernel and breaks " +
		"the deterministic one-at-a-time handoff",
	Run: func(c *Context) {
		if c.Module.internalPkg(c.Pkg.ImportPath, "sim") ||
			c.Module.internalPkg(c.Pkg.ImportPath, "runner") {
			return
		}
		c.inspect(func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				c.Reportf(g.Pos(), "raw go statement: goroutines outside sim.Kernel.Go run concurrently with the kernel and break the deterministic one-at-a-time handoff; use Kernel.Go")
			}
			return true
		})
	},
}

// ---------------------------------------------------------------------------
// Rule: runner-task-isolation

var runnerTaskIsolation = &Rule{
	Name: "runner-task-isolation",
	Doc: "flags function literals passed to internal/runner that capture a " +
		"*sim.Kernel declared outside the literal: runner tasks execute on host " +
		"worker goroutines, so every task must construct (and exclusively own) " +
		"its kernel — a captured outer kernel is shared across threads and races",
	Run: func(c *Context) {
		runnerPath := c.Module.Path + "/internal/runner"
		if c.Pkg.ImportPath == runnerPath {
			return
		}
		c.inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := callee(c.Pkg.Info, call.Fun)
			if f == nil || pkgPath(f) != runnerPath {
				return true
			}
			// Check the outermost function literals anywhere in the
			// argument list: a task may be passed directly (runner.Map's
			// fn) or wrapped in a composite literal ([]runner.Task{...}).
			// Closures nested inside a task belong to that task, so the
			// walk stops at the first literal on each path.
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if lit, ok := an.(*ast.FuncLit); ok {
						c.checkTaskKernelCaptures(lit)
						return false
					}
					return true
				})
			}
			return true
		})
	},
}

// checkTaskKernelCaptures reports every use inside lit of a *sim.Kernel
// variable declared outside the literal (parameters and locals of the
// literal itself are its own and fine; struct fields are reached through
// some captured base and are the base's problem, not a kernel capture).
func (c *Context) checkTaskKernelCaptures(lit *ast.FuncLit) {
	simPath := c.Module.Path + "/internal/sim"
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if isSimKernelPtr(v.Type(), simPath) {
			c.Reportf(id.Pos(), "runner task captures *sim.Kernel %q declared outside the task: kernels are single-threaded and a task runs on a host worker goroutine; construct the kernel inside the task so each scenario owns its own", v.Name())
		}
		return true
	})
}

// isSimKernelPtr reports whether t is *Kernel with Kernel defined in
// simPath.
func isSimKernelPtr(t types.Type, simPath string) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Kernel" && obj.Pkg() != nil && obj.Pkg().Path() == simPath
}

// ---------------------------------------------------------------------------
// Rule 3: map-order-determinism

// simSchedulingFuncs are the internal/sim entry points that make map
// iteration order observable in the event queue.
var simSchedulingFuncs = map[string]bool{
	"Schedule": true, "At": true, "Go": true, "Sleep": true,
	"Wait": true, "WaitAny": true, "Join": true, "Fire": true,
	"Acquire": true, "Release": true,
}

var mapOrderDeterminism = &Rule{
	Name: "map-order-determinism",
	Doc: "flags range-over-map bodies that schedule simulation work, send or " +
		"receive on channels, or append to a slice that is not sorted afterwards " +
		"in the same function — Go randomizes map iteration order per run",
	Run: func(c *Context) {
		simPath := c.Module.Path + "/internal/sim"
		for _, file := range c.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c.checkMapRanges(fd.Body, simPath)
			}
		}
	},
}

// checkMapRanges scans one function body: map-range statements are
// inspected for order-sensitive operations; appends are excused when a
// sort call follows the loop later in the same function.
func (c *Context) checkMapRanges(body *ast.BlockStmt, simPath string) {
	var sortCalls []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := callee(c.Pkg.Info, call.Fun); f != nil {
			switch pkgPath(f) {
			case "sort":
				sortCalls = append(sortCalls, call.Pos())
			case "slices":
				if strings.HasPrefix(f.Name(), "Sort") {
					sortCalls = append(sortCalls, call.Pos())
				}
			}
		}
		return true
	})
	sortedAfter := func(end token.Pos) bool {
		for _, p := range sortCalls {
			if p > end {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := c.Pkg.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(inner ast.Node) bool {
			switch inner := inner.(type) {
			case *ast.SendStmt:
				c.Reportf(inner.Pos(), "channel send inside range over map: delivery order depends on the randomized iteration order; iterate sorted keys instead")
			case *ast.UnaryExpr:
				if inner.Op == token.ARROW {
					c.Reportf(inner.Pos(), "channel receive inside range over map: pairing depends on the randomized iteration order; iterate sorted keys instead")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(inner.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := c.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && !sortedAfter(rs.End()) {
						c.Reportf(inner.Pos(), "append inside range over map builds a randomly ordered slice and no sort follows in this function; sort the keys (or the result) to keep downstream behavior deterministic")
					}
					return true
				}
				f := callee(c.Pkg.Info, inner.Fun)
				if f != nil && pkgPath(f) == simPath && simSchedulingFuncs[f.Name()] {
					c.Reportf(inner.Pos(), "sim.%s inside range over map: event order would follow the randomized iteration order; iterate sorted keys instead", f.Name())
				}
			}
			return true
		})
		return true
	})
}

// ---------------------------------------------------------------------------
// Rule 4: cycle-accounting

// delayFuncs are the sim entry points whose first argument is a cycle
// delay (or absolute cycle for At).
var delayFuncs = map[string]bool{
	"Schedule": true, "At": true, "Sleep": true, "WaitCycles": true,
}

// regOffsetPkgs are the internal packages whose register-map const
// blocks the alignment/duplication check applies to.
var regOffsetPkgs = []string{"axi", "hwicap", "dma", "clint", "plic"}

var cycleAccounting = &Rule{
	Name: "cycle-accounting",
	Doc: "flags constant negative delays passed to sim.Schedule/At/Sleep/WaitCycles " +
		"(scheduling into the past) and MMIO register-offset constants that are " +
		"unaligned (not 4-byte) or duplicated within their const block in the " +
		"register-map packages (internal/axi, hwicap, dma, clint, plic)",
	Run: func(c *Context) {
		simPath := c.Module.Path + "/internal/sim"
		c.inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := callee(c.Pkg.Info, call.Fun)
			if f == nil || pkgPath(f) != simPath || !delayFuncs[f.Name()] || len(call.Args) == 0 {
				return true
			}
			if tv, ok := c.Pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil &&
				tv.Value.Kind() == constant.Int && constant.Sign(tv.Value) < 0 {
				c.Reportf(call.Args[0].Pos(), "constant negative cycle count %s passed to sim.%s: scheduling into the past is always a cycle-accounting bug", tv.Value.String(), f.Name())
			}
			return true
		})

		for _, pkg := range regOffsetPkgs {
			if c.Module.internalPkg(c.Pkg.ImportPath, pkg) {
				c.checkRegisterOffsets()
				return
			}
		}
	},
}

// checkRegisterOffsets validates const blocks that document themselves
// as register offsets (doc comment mentioning "offset"): every value
// must be 32-bit-aligned and unique within its block, because the MMIO
// layer only accepts aligned word accesses and a duplicated offset
// silently aliases two registers.
func (c *Context) checkRegisterOffsets() {
	for _, file := range c.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || gd.Doc == nil ||
				!strings.Contains(strings.ToLower(gd.Doc.Text()), "offset") {
				continue
			}
			seen := make(map[int64]string)
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					cst, ok := c.Pkg.Info.Defs[name].(*types.Const)
					if !ok || cst.Val().Kind() != constant.Int {
						continue
					}
					v, exact := constant.Int64Val(cst.Val())
					if !exact {
						continue
					}
					if v%4 != 0 {
						c.Reportf(name.Pos(), "register offset %s = %#x is not 32-bit aligned; the MMIO register files reject (or panic on) unaligned word offsets", name.Name, v)
					}
					if prev, dup := seen[v]; dup {
						c.Reportf(name.Pos(), "register offset %s = %#x duplicates %s in the same block; two registers at one offset alias each other", name.Name, v, prev)
					} else {
						seen[v] = name.Name
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Rule: burst-accounting

var burstAccounting = &Rule{
	Name: "burst-accounting",
	Doc: "flags per-beat axi Push calls inside loop bodies in internal/ device " +
		"packages (outside internal/axi itself): a beat-by-beat push loop costs a " +
		"full kernel handoff per beat; move whole bursts or rows with PushBurstAsync, " +
		"which charges identical cycle counts at a fraction of the host cost",
	Run: func(c *Context) {
		if !strings.HasPrefix(c.Pkg.ImportPath, c.Module.Path+"/internal/") ||
			c.Module.internalPkg(c.Pkg.ImportPath, "axi") {
			return
		}
		axiPath := c.Module.Path + "/internal/axi"
		seen := make(map[token.Pos]bool)
		checkLoopBody := func(body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				// A nested function literal runs on its own schedule;
				// its loops are inspected separately when the walk
				// reaches them.
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || seen[call.Pos()] {
					return true
				}
				f := callee(c.Pkg.Info, call.Fun)
				if f == nil || f.Name() != "Push" || pkgPath(f) != axiPath {
					return true
				}
				if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() == nil {
					return true
				}
				seen[call.Pos()] = true
				c.Reportf(call.Pos(), "per-beat axi Push inside a loop: each call costs a full kernel handoff; batch the beats and use PushBurstAsync (identical cycle accounting, one handoff per burst)")
				return true
			})
		}
		c.inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				checkLoopBody(n.Body)
			case *ast.RangeStmt:
				checkLoopBody(n.Body)
			}
			return true
		})
	},
}

// ---------------------------------------------------------------------------
// Rule 5: error-discipline

// errReturnPkgs are the reconfiguration-path packages whose error
// returns must never be dropped: a swallowed error there turns a failed
// bitstream load into silent corruption.
var errReturnPkgs = []string{"bitstream", "fat32", "driver"}

var errorDiscipline = &Rule{
	Name: "error-discipline",
	Doc: "flags discarded error returns (expression statements, defers, and blank " +
		"assignments) from internal/bitstream, internal/fat32 and internal/driver " +
		"APIs — the reconfiguration path must surface every failure",
	Run: func(c *Context) {
		onPath := func(f *types.Func) bool {
			if f == nil {
				return false
			}
			p := pkgPath(f)
			for _, pkg := range errReturnPkgs {
				if c.Module.internalPkg(p, pkg) {
					return true
				}
			}
			return false
		}
		errIndexes := func(f *types.Func) []int {
			sig, ok := f.Type().(*types.Signature)
			if !ok {
				return nil
			}
			var idx []int
			for i := 0; i < sig.Results().Len(); i++ {
				if types.Identical(sig.Results().At(i).Type(), errType) {
					idx = append(idx, i)
				}
			}
			return idx
		}
		check := func(call *ast.CallExpr, how string) {
			f := callee(c.Pkg.Info, call.Fun)
			if !onPath(f) || len(errIndexes(f)) == 0 {
				return
			}
			c.Reportf(call.Pos(), "%s error returned by %s.%s: reconfiguration-path errors must be handled (or suppressed with an explicit reason)", how, pkgPath(f), f.Name())
		}
		c.inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, "discarded")
				}
			case *ast.DeferStmt:
				check(n.Call, "deferred and discarded")
			case *ast.GoStmt:
				check(n.Call, "discarded (in go statement)")
			case *ast.AssignStmt:
				c.checkBlankErrAssign(n, onPath, errIndexes)
			}
			return true
		})
	},
}

var errType = types.Universe.Lookup("error").Type()

// checkBlankErrAssign flags `_`-assigned error results of on-path
// calls, in both the tuple form `n, _ := f()` and the direct form
// `_ = f()`.
func (c *Context) checkBlankErrAssign(as *ast.AssignStmt, onPath func(*types.Func) bool, errIndexes func(*types.Func) []int) {
	isBlank := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	report := func(call *ast.CallExpr, f *types.Func) {
		c.Reportf(call.Pos(), "error returned by %s.%s assigned to _: reconfiguration-path errors must be handled (or suppressed with an explicit reason)", pkgPath(f), f.Name())
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		f := callee(c.Pkg.Info, call.Fun)
		if !onPath(f) {
			return
		}
		for _, i := range errIndexes(f) {
			if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
				report(call, f)
				return
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		f := callee(c.Pkg.Info, call.Fun)
		if onPath(f) && len(errIndexes(f)) > 0 {
			report(call, f)
		}
	}
}
