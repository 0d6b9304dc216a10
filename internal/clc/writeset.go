package clc

// Write-set analysis: determine, statically and conservatively, which
// __global/__constant pointer parameters a kernel may store through. The
// paper lists this capability as future work (§III-D): with it, CheCL can
// perform *incremental* checkpointing of OpenCL objects, writing a memory
// object into the checkpoint file only if some kernel executed since the
// previous checkpoint may have modified it.

// WriteSet reports, for the kernel named name, the indices of parameters
// that the kernel (or any helper it calls) may write through. Parameters
// not in the set are read-only and their buffers cannot be dirtied by the
// kernel. The analysis is conservative: pointer values that flow through
// locals, helper calls or arithmetic are tracked by name; any store whose
// base cannot be traced marks every pointer parameter as written.
func (p *Program) WriteSet(name string) ([]int, bool) {
	fn := p.Unit.Lookup(name)
	if fn == nil || !fn.IsKernel || fn.Body == nil {
		return nil, false
	}
	return writeSet(p.Unit, fn), true
}

// writeSet is WriteSet for a kernel declaration of unit.
func writeSet(unit *Unit, fn *FuncDecl) []int {
	a := &writeAnalysis{unit: unit}
	written := a.analyzeFunc(fn)
	var out []int
	for i, prm := range fn.Params {
		if ClassifyParam(prm.Type) != ParamMemHandle {
			continue
		}
		// The wildcard (an untraceable store) conservatively dirties every
		// pointer parameter — except ones the type system already proves
		// read-only: __constant pointers and const-element pointers cannot
		// be stored through, so even an untraceable store cannot hit them.
		if written[prm.Name] || (written[wildcard] && !readOnlyParam(prm.Type)) {
			out = append(out, i)
		}
	}
	return out
}

// readOnlyParam reports whether a pointer parameter is provably read-only:
// the kernel cannot legally store through a __constant pointer or a
// pointer to const.
func readOnlyParam(t *Type) bool {
	return t.Kind == TPtr && (t.Space == ASConstant || t.ConstElem)
}

// wildcard marks "some untraceable pointer was stored through".
const wildcard = "*"

type writeAnalysis struct {
	unit  *Unit
	depth int
}

// analyzeFunc returns the set of parameter/alias names written through.
func (a *writeAnalysis) analyzeFunc(fn *FuncDecl) map[string]bool {
	if a.depth > 32 {
		return map[string]bool{wildcard: true}
	}
	a.depth++
	defer func() { a.depth-- }()

	// aliases maps each local pointer variable to the root name it may
	// point into (a parameter name or wildcard).
	aliases := map[string]string{}
	for _, p := range fn.Params {
		if p.Type.Kind == TPtr {
			aliases[p.Name] = p.Name
		}
	}
	written := map[string]bool{}

	var root func(e Expr) string
	root = func(e Expr) string {
		switch v := e.(type) {
		case *Ident:
			if r, ok := aliases[v.Name]; ok {
				return r
			}
			return "" // local array or non-pointer
		case *IndexExpr:
			return root(v.Base)
		case *UnaryExpr:
			if v.Op == "*" || v.Op == "&" {
				return root(v.X)
			}
			return ""
		case *BinaryExpr:
			if r := root(v.L); r != "" {
				return r
			}
			return root(v.R)
		case *CastExpr:
			return root(v.X)
		case *CondExpr:
			if r := root(v.Then); r != "" {
				return r
			}
			return root(v.Else)
		case *AssignExpr:
			return root(v.L)
		default:
			return ""
		}
	}

	mark := func(name string) {
		if name == "" {
			return
		}
		written[name] = true
	}

	inspect(fn.Body, func(n any) bool {
		switch v := n.(type) {
		case *AssignExpr:
			// A store through an lvalue rooted at a pointer parameter.
			switch lhs := v.L.(type) {
			case *IndexExpr:
				mark(root(lhs.Base))
			case *UnaryExpr:
				if lhs.Op == "*" {
					mark(root(lhs.X))
				}
			case *Ident:
				// Re-binding a local pointer: track the new alias.
				if _, isPtr := aliases[lhs.Name]; isPtr || rootIsPtr(v.R, aliases) {
					r := root(v.R)
					if r == "" {
						r = wildcard
					}
					aliases[lhs.Name] = r
				}
			}
		case *CallExpr:
			// Atomics write through their first argument.
			if len(v.Args) > 0 && isAtomicName(v.Fun) {
				mark(root(v.Args[0]))
				break
			}
			if callee := a.unit.Lookup(v.Fun); callee != nil && callee.Body != nil {
				sub := a.analyzeFunc(callee)
				for i, prm := range callee.Params {
					if i >= len(v.Args) {
						break
					}
					if prm.Type.Kind == TPtr && sub[prm.Name] {
						mark(root(v.Args[i]))
					}
				}
				if sub[wildcard] {
					mark(wildcard)
				}
			}
		case *DeclStmt:
			if v.Type.Kind == TPtr && v.Init != nil {
				r := root(v.Init)
				if r == "" {
					r = wildcard
				}
				aliases[v.Name] = r
			}
		}
		return true
	})
	return written
}

func rootIsPtr(e Expr, aliases map[string]string) bool {
	switch v := e.(type) {
	case *Ident:
		_, ok := aliases[v.Name]
		return ok
	case *BinaryExpr:
		return rootIsPtr(v.L, aliases) || rootIsPtr(v.R, aliases)
	case *CastExpr:
		return v.Type.Kind == TPtr
	case *UnaryExpr:
		return v.Op == "&"
	default:
		return false
	}
}

func isAtomicName(name string) bool {
	return len(name) > 5 && (name[:6] == "atomic" || (len(name) > 4 && name[:5] == "atom_"))
}
