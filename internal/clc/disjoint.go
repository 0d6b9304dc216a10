package clc

import "unsafe"

// Group-disjointness: may a kernel's work-groups run concurrently without
// changing any result? Only when no two groups touch the same global
// element with at least one of them storing. The rule is syntactic and
// conservative; a kernel that fails it runs its groups on one goroutine in
// ascending group order, which gives even an OpenCL-level race one defined
// outcome. A kernel passes when neither it nor any function it can call
// uses an atomic_* builtin, and every buffer parameter in its write-set
// (writeset.go, so stores through aliases and helpers count) appears only
// as P[id], where id is get_global_id(d) or get_group_id(d) for one literal
// dimension d shared by all such accesses, or a local variable initialised
// to that (possibly through a cast to a 32- or 64-bit integer) and never
// assigned again. A launch of a passing kernel is disjoint when it has one
// group in every dimension other than d and no written buffer overlaps
// another buffer argument.

// disjointStores is the lowering-time half of the rule.
type disjointStores struct {
	ok      bool
	dim     int   // the id dimension every written buffer is indexed by; -1: nothing written
	written []int // parameter indices in the write-set
}

func analyzeStores(unit *Unit, fn *FuncDecl) disjointStores {
	out := disjointStores{dim: -1, written: writeSet(unit, fn)}
	if usesAtomics(unit, fn, map[*FuncDecl]bool{}) {
		return out
	}
	written := map[string]bool{}
	for _, i := range out.written {
		written[fn.Params[i].Name] = true
	}

	// idVars: locals bound once to an id of a dimension and never changed.
	idVars := map[string]int{}
	declared := map[string]int{}
	assigned := map[string]bool{}
	inspect(fn.Body, func(n any) bool {
		switch v := n.(type) {
		case *DeclStmt:
			declared[v.Name]++
			if d, ok := idExpr(v.Init, nil); ok && v.Elems == nil && wideInt(v.Type) {
				idVars[v.Name] = d
			}
		case *AssignExpr:
			if id, ok := v.L.(*Ident); ok {
				assigned[id.Name] = true
			}
		case *PostfixExpr:
			if id, ok := v.X.(*Ident); ok {
				assigned[id.Name] = true
			}
		case *UnaryExpr:
			if id, ok := v.X.(*Ident); ok && (v.Op == "++" || v.Op == "--") {
				assigned[id.Name] = true
			}
		}
		return true
	})
	for _, p := range fn.Params {
		declared[p.Name]++
	}
	for name := range idVars {
		if declared[name] != 1 || assigned[name] {
			delete(idVars, name)
		}
	}
	for name := range written {
		if declared[name] != 1 {
			return out // shadowed: uses of the name cannot be attributed
		}
	}

	ok := true
	inspect(fn.Body, func(n any) bool {
		switch v := n.(type) {
		case *IndexExpr:
			base, isIdent := v.Base.(*Ident)
			if !isIdent || !written[base.Name] {
				return true
			}
			d, isID := idExpr(v.Index, idVars)
			if !isID || (out.dim >= 0 && d != out.dim) {
				ok = false
			}
			out.dim = d
			return false // the base is accounted for; the index holds no buffer
		case *Ident:
			if written[v.Name] {
				ok = false
			}
		}
		return ok
	})
	out.ok = ok
	return out
}

// idExpr reports whether e is the item's own global or group id in one
// literal dimension, directly or through idVars.
func idExpr(e Expr, idVars map[string]int) (dim int, ok bool) {
	switch v := e.(type) {
	case *CastExpr:
		if wideInt(v.Type) {
			return idExpr(v.X, idVars)
		}
	case *Ident:
		dim, ok = idVars[v.Name]
		return dim, ok
	case *CallExpr:
		if v.Fun != "get_global_id" && v.Fun != "get_group_id" || len(v.Args) != 1 {
			return 0, false
		}
		if lit, isLit := v.Args[0].(*IntLit); isLit && lit.Val >= 0 && lit.Val <= 2 {
			return int(lit.Val), true
		}
	}
	return 0, false
}

// wideInt reports whether distinct ids stay distinct in type t.
func wideInt(t *Type) bool { return t.IsInteger() && t.Size() >= 4 }

func usesAtomics(unit *Unit, fn *FuncDecl, seen map[*FuncDecl]bool) bool {
	if fn == nil || fn.Body == nil || seen[fn] {
		return false
	}
	seen[fn] = true
	found := false
	inspect(fn.Body, func(n any) bool {
		if c, ok := n.(*CallExpr); ok {
			if _, atomic := atomics[builtinBase(c.Fun)]; atomic || usesAtomics(unit, unit.Lookup(c.Fun), seen) {
				found = true
			}
		}
		return !found
	})
	return found
}

// disjointFor is the launch-time half of the rule.
func (s *disjointStores) disjointFor(numGroups [3]int, args []KernelArg) bool {
	if !s.ok {
		return false
	}
	for d, n := range numGroups {
		if d != s.dim && n > 1 && s.dim >= 0 {
			return false
		}
	}
	for _, w := range s.written {
		for i, a := range args {
			if i != w && overlap(args[w].Mem, a.Mem) {
				return false
			}
		}
	}
	return true
}

func overlap(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// inspect walks the statement or expression n depth-first, calling visit
// for every non-nil node; visit returns false to skip a node's children.
func inspect(n any, visit func(n any) bool) {
	if b, isBlock := n.(*BlockStmt); n == nil || isBlock && b == nil || !visit(n) {
		return
	}
	switch v := n.(type) {
	case *BlockStmt:
		inspectAll(visit, v.List...)
	case *DeclStmt:
		inspectAll(visit, v.Elems, v.Init)
	case *ExprStmt:
		inspect(v.X, visit)
	case *IfStmt:
		inspect(v.Cond, visit)
		inspectAll(visit, v.Then, v.Else)
	case *ForStmt:
		inspect(v.Init, visit)
		inspectAll(visit, v.Cond, v.Post)
		inspect(v.Body, visit)
	case *WhileStmt:
		inspect(v.Cond, visit)
		inspect(v.Body, visit)
	case *DoWhileStmt:
		inspect(v.Body, visit)
		inspect(v.Cond, visit)
	case *SwitchStmt:
		inspect(v.Tag, visit)
		for _, cs := range v.Cases {
			inspectAll(visit, cs.Vals...)
			inspectAll(visit, cs.Body...)
		}
	case *ReturnStmt:
		inspect(v.X, visit)
	case *BinaryExpr:
		inspectAll(visit, v.L, v.R)
	case *UnaryExpr:
		inspect(v.X, visit)
	case *PostfixExpr:
		inspect(v.X, visit)
	case *AssignExpr:
		inspectAll(visit, v.L, v.R)
	case *IndexExpr:
		inspectAll(visit, v.Base, v.Index)
	case *CallExpr:
		inspectAll(visit, v.Args...)
	case *CondExpr:
		inspectAll(visit, v.Cond, v.Then, v.Else)
	case *CastExpr:
		inspect(v.X, visit)
	}
}

func inspectAll[T any](visit func(n any) bool, nodes ...T) {
	for _, n := range nodes {
		inspect(n, visit)
	}
}
