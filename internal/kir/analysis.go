package kir

import "sort"

// LoopInfo describes one outermost loop region of a kernel. The paper's
// translator treats each maximal loop (with everything nested inside it) as
// one protection region: non-loop detectors cover the code before, after
// and between these regions, and one loop detector set covers each region
// (Section V).
type LoopInfo struct {
	Stmt     Stmt // *For or *While
	For      *For // non-nil when the region is a counted loop
	TopIndex int  // index of the loop statement in the kernel's top-level block
	RegionID int  // dense loop-region index within the kernel

	// DefinedIn lists virtual variables introduced by Define statements
	// inside the region (including nested blocks), in program order.
	DefinedIn []*Var
	// AssignedIn lists variables re-assigned inside the region (loop
	// accumulators, iterators of nested loops are not included).
	AssignedIn []*Var
	// SelfAccum lists self-accumulating variables: variables defined
	// before the loop and re-assigned inside it by an expression that
	// reads the variable itself (e.g. energy = energy + dx). These are
	// protectable for free (Section V.B step i).
	SelfAccum []*Var
	// Outputs lists region variables whose value escapes: stored to
	// memory inside the region or used after the region ends.
	Outputs []*Var

	directDeps map[*Var]map[*Var]bool // region-var -> region-vars it reads
	loadCount  map[*Var]int           // region-var -> loads in its defining stmts
	regionVars map[*Var]bool
}

// Analysis holds the kernel-wide dataflow facts the translator needs.
type Analysis struct {
	Kernel *Kernel
	Loops  []*LoopInfo

	// LastTopUse maps each variable to the largest top-level statement
	// index at which it is read (uses anywhere inside a nested region
	// count at the region's top-level index). Variables never read are
	// absent.
	LastTopUse map[*Var]int

	// UseCount counts reads of each variable anywhere in the kernel.
	UseCount map[*Var]int

	// AssignedInLoop marks variables re-assigned inside any loop region.
	AssignedInLoop map[*Var]bool

	// UsedInLoop marks variables read inside any loop region.
	UsedInLoop map[*Var]bool

	// MaxLive estimates the peak number of simultaneously live variables
	// (the register pressure the paper's Fig. 8 discussion is about).
	MaxLive int
}

// Analyze computes the dataflow facts for a kernel.
func Analyze(k *Kernel) *Analysis {
	a := &Analysis{
		Kernel:         k,
		LastTopUse:     make(map[*Var]int),
		UseCount:       make(map[*Var]int),
		AssignedInLoop: make(map[*Var]bool),
		UsedInLoop:     make(map[*Var]bool),
	}

	for i, s := range k.Body {
		// Record uses at this top-level index.
		var scratch []*Var
		collectUses(s, &scratch)
		for _, v := range scratch {
			a.LastTopUse[v] = i
			a.UseCount[v]++
		}

		switch n := s.(type) {
		case *For:
			li := a.analyzeLoop(n, n.Body, i)
			li.For = n
			a.Loops = append(a.Loops, li)
		case *While:
			a.Loops = append(a.Loops, a.analyzeLoop(n, n.Body, i))
		}
	}
	for ri, li := range a.Loops {
		li.RegionID = ri
	}
	a.computeOutputs()
	a.MaxLive = maxLive(k)
	return a
}

// collectUses appends every variable read by s (including nested blocks,
// loop bounds and pointer bases) to out.
func collectUses(s Stmt, out *[]*Var) {
	WalkStmts(Block{s}, func(st Stmt) bool {
		for _, e := range StmtExprs(nil, st) {
			*out = ExprUses(*out, e)
		}
		if sb, ok := st.(Store); ok {
			*out = append(*out, sb.Base)
		}
		return true
	})
}

func (a *Analysis) analyzeLoop(stmt Stmt, body Block, topIndex int) *LoopInfo {
	li := &LoopInfo{
		Stmt:       stmt,
		TopIndex:   topIndex,
		directDeps: make(map[*Var]map[*Var]bool),
		loadCount:  make(map[*Var]int),
		regionVars: make(map[*Var]bool),
	}

	// First pass: identify region variables (defined or assigned inside).
	WalkStmts(body, func(s Stmt) bool {
		switch n := s.(type) {
		case Define:
			li.DefinedIn = append(li.DefinedIn, n.Dst)
			li.regionVars[n.Dst] = true
		case Assign:
			if !li.regionVars[n.Dst] {
				li.AssignedIn = append(li.AssignedIn, n.Dst)
			}
			li.regionVars[n.Dst] = true
		case *For:
			li.regionVars[n.Iter] = true
		}
		return true
	})

	// Second pass: dependency edges, load counts, self-accumulators.
	seenSelf := make(map[*Var]bool)
	WalkStmts(body, func(s Stmt) bool {
		dst := StmtDef(s)
		if dst == nil {
			return true
		}
		var e Expr
		switch n := s.(type) {
		case Define:
			e = n.E
		case Assign:
			e = n.E
			if ReadsVar(n.E, n.Dst) && !seenSelf[n.Dst] {
				// Self-accumulating only when the storage pre-exists the
				// loop; a Define inside the region makes it loop-local.
				isLocalDef := false
				for _, d := range li.DefinedIn {
					if d == n.Dst {
						isLocalDef = true
						break
					}
				}
				if !isLocalDef {
					li.SelfAccum = append(li.SelfAccum, n.Dst)
					seenSelf[n.Dst] = true
				}
			}
		default:
			return true // For iterators carry no dataflow edges
		}
		deps := li.directDeps[dst]
		if deps == nil {
			deps = make(map[*Var]bool)
			li.directDeps[dst] = deps
		}
		for _, u := range ExprUses(nil, e) {
			if li.regionVars[u] {
				deps[u] = true
			}
		}
		nLoads := 0
		WalkExpr(e, func(x Expr) bool {
			if _, ok := x.(Load); ok {
				nLoads++
			}
			return true
		})
		li.loadCount[dst] += nLoads
		return true
	})
	return li
}

// computeOutputs fills each loop's Outputs: region variables stored to
// memory inside the region or read after the region's top-level index.
func (a *Analysis) computeOutputs() {
	for _, li := range a.Loops {
		var body Block
		switch n := li.Stmt.(type) {
		case *For:
			body = n.Body
		case *While:
			body = n.Body
		}
		stored := make(map[*Var]bool)
		WalkStmts(body, func(s Stmt) bool {
			if st, ok := s.(Store); ok {
				for _, u := range ExprUses(nil, st.Val) {
					stored[u] = true
				}
			}
			return true
		})
		// Region-wide use marking for the kernel-level maps.
		WalkStmts(body, func(s Stmt) bool {
			for _, e := range StmtExprs(nil, s) {
				for _, u := range ExprUses(nil, e) {
					a.UsedInLoop[u] = true
				}
			}
			if as, ok := s.(Assign); ok {
				a.AssignedInLoop[as.Dst] = true
			}
			return true
		})
		seen := make(map[*Var]bool)
		addOut := func(v *Var) {
			if !seen[v] {
				seen[v] = true
				li.Outputs = append(li.Outputs, v)
			}
		}
		for v := range li.regionVars {
			if v.Synth {
				continue
			}
			if stored[v] || a.LastTopUse[v] > li.TopIndex {
				addOut(v)
			}
		}
		sort.Slice(li.Outputs, func(i, j int) bool { return li.Outputs[i].ID < li.Outputs[j].ID })
	}
}

// BackwardDep computes the cumulative backward dataflow dependency of v
// within the loop region (Figure 9): the number of distinct region
// variables that are directly or indirectly used to compute v, plus the
// number of memory loads feeding that computation, excluding constants and
// excluding variables defined outside the region (those are protected by
// non-loop detectors).
func (li *LoopInfo) BackwardDep(v *Var) int {
	visited := make(map[*Var]bool)
	loads := 0
	var dfs func(x *Var)
	dfs = func(x *Var) {
		if visited[x] {
			return
		}
		visited[x] = true
		loads += li.loadCount[x]
		for d := range li.directDeps[x] {
			dfs(d)
		}
	}
	dfs(v)
	// visited includes v itself; dependencies exclude it.
	return len(visited) - 1 + loads
}

// BackwardCone returns v's dependency cone within the region: every region
// variable with forward dataflow to v (directly or indirectly feeding v),
// including v itself. The selection algorithm excludes this set after
// selecting v, because errors in those variables propagate into v and are
// already covered (Section V.B step i).
func (li *LoopInfo) BackwardCone(v *Var) map[*Var]bool {
	visited := make(map[*Var]bool)
	var dfs func(x *Var)
	dfs = func(x *Var) {
		if visited[x] {
			return
		}
		visited[x] = true
		for d := range li.directDeps[x] {
			dfs(d)
		}
	}
	dfs(v)
	return visited
}

// TripCount returns an expression for the loop's iteration count
// max(0, ceil((Limit-Init)/Step)), or nil when the count is not derivable
// (the bounds read a variable that the body re-assigns). The returned
// expression clones the loop bounds so the caller can evaluate it before
// the loop executes, matching the paper's "computed and stored in a
// variable before the loop" rule.
func (li *LoopInfo) TripCount() Expr {
	f := li.For
	if f == nil {
		return nil
	}
	for _, e := range []Expr{f.Init, f.Limit, f.Step} {
		for _, u := range ExprUses(nil, e) {
			if li.regionVars[u] {
				return nil
			}
		}
	}
	init := CloneExpr(f.Init, nil)
	limit := CloneExpr(f.Limit, nil)
	step := CloneExpr(f.Step, nil)
	// (limit - init + step - 1) / step, clamped at zero.
	diff := Bin{Op: Sub, L: limit, R: init}
	num := Bin{Op: Sub, L: Bin{Op: Add, L: diff, R: step}, R: ConstI32(1)}
	count := Bin{Op: Div, L: num, R: CloneExpr(f.Step, nil)}
	return Call{Fn: Max, Args: []Expr{count, ConstI32(0)}}
}

// --- Delta transparency ---------------------------------------------------

// DeltaKey names the word a delta-transparent load site reads: Base[Index],
// where Base is a pointer variable no Assign re-targets and Index is a
// constant.
type DeltaKey struct {
	Base  *Var
	Index uint32
}

// Delta is the delta-transparency analysis of a kernel, the static half of
// golden-trace carry (DESIGN.md §5). Suppose a thread runs exactly as a
// reference twin did except that some words it loads hold the reference
// value plus a wrapping shift δ. An integer load site is transparent when
// the loaded value — FI probes taken as the identity — reaches nothing but
//
//   - wrapping integer + or − with an unshifted operand (the result carries
//     the same shift);
//   - a store back through the same pointer variable and constant index;
//   - == or != against a value carrying the same word's shift (the result
//     is the reference result);
//   - an integer accumulator whose only definitions are a constant and
//     acc = acc + x, and whose only uses are RangeCheck and ProfileSample.
//
// Then the thread takes its twin's path, each store through a transparent
// site writes the twin's value plus δ to the same word, and each such
// accumulator holds the twin's value plus count·δ per word it summed.
// Everything else is opaque: float uses, ordered compares, conversions,
// address arithmetic, a store to another address or of an unshifted value
// over the word, any other accumulator shape. A shifted variable must be
// defined once and used only after its definition within the same block,
// where its pointer is not redefined, so the word a shifted value came from
// is the word its pointer names wherever the value is used.
type Delta struct {
	tags  map[*Var]dtag
	loads map[*Var]DeltaKey // transparent load sites, by the variable each defines
}

type dkind uint8

const (
	dClean  dkind = iota // the reference value
	dShift               // the reference value plus one word's shift
	dAcc                 // an accumulator that summed shifted values
	dOpaque              // a shifted value reached some other use
)

// dtag is the abstract value of a variable or expression; keys are the
// words whose shifts reached it (exactly one for dShift).
type dtag struct {
	kind dkind
	keys []DeltaKey
}

// AnalyzeDelta classifies k's load sites, stores and accumulators. Every
// candidate site — an integer Define of Base[constant] through a pointer
// no Assign re-targets — starts transparent; a pass that finds a shifted
// value reaching an opaque use demotes the words it came from, and the
// passes repeat until none does. Shifts originate only at candidates not
// yet demoted, so each pass demotes at least one and the loop ends.
func AnalyzeDelta(k *Kernel) *Delta {
	f := newDeltaFacts(k)
	demoted := make(map[DeltaKey]bool)
	for {
		p := &deltaPass{Delta: &Delta{tags: make(map[*Var]dtag), loads: make(map[*Var]DeltaKey)}, f: f, demoted: demoted}
		p.run()
		if len(p.bad) == 0 {
			return p.Delta
		}
		for _, key := range p.bad {
			demoted[key] = true
		}
	}
}

// Load reports whether def is a transparent load site, and the word it reads.
func (d *Delta) Load(def Define) (DeltaKey, bool) {
	key, ok := d.loads[def.Dst]
	return key, ok
}

// Store reports whether st is a transparent store: it writes a value
// carrying the shift of the very word it writes.
func (d *Delta) Store(st Store) bool {
	c, ok := st.Index.(Const)
	t := d.eval(st.Val)
	return ok && t.kind == dShift && t.keys[0] == DeltaKey{Base: st.Base, Index: c.Bits}
}

// Accumulator reports whether v is an admitted accumulator that sums values
// loaded through transparent sites.
func (d *Delta) Accumulator(v *Var) bool { return d.tags[v].kind == dAcc }

// Term returns the word whose shift the accumulator definition acc = e
// adds, when e adds a shifted value.
func (d *Delta) Term(acc *Var, e Expr) (DeltaKey, bool) {
	if !d.Accumulator(acc) {
		return DeltaKey{}, false
	}
	term, ok := accTerm(acc, e)
	if !ok {
		return DeltaKey{}, false
	}
	if t := d.eval(term); t.kind == dShift {
		return t.keys[0], true
	}
	return DeltaKey{}, false
}

// eval is the abstract value of e under the variables' tags.
func (d *Delta) eval(e Expr) dtag {
	switch n := e.(type) {
	case VarRef:
		t := d.tags[n.V]
		if t.kind == dAcc {
			t.kind = dOpaque
		}
		return t
	case Load:
		return join(d.eval(VarRef{V: n.Base}), d.eval(n.Index))
	case Bin:
		l, r := d.eval(n.L), d.eval(n.R)
		wrapping := isIntType(n.L.ResultType())
		switch {
		case wrapping && (n.Op == Add || n.Op == Sub) && l.kind == dShift && r.kind == dClean:
			return l
		case wrapping && n.Op == Add && l.kind == dClean && r.kind == dShift:
			return r
		case (n.Op == Eq || n.Op == Ne) && l.kind == dShift && r.kind == dShift && l.keys[0] == r.keys[0]:
			return dtag{}
		}
		return join(l, r)
	case Un:
		return join(d.eval(n.X))
	case Call:
		var ts []dtag
		for _, a := range n.Args {
			ts = append(ts, d.eval(a))
		}
		return join(ts...)
	case Convert:
		return join(d.eval(n.X))
	case Bitcast:
		return join(d.eval(n.X))
	}
	return dtag{}
}

// join is the value of an operation no rule admits: clean when every
// operand is, else opaque over every key that reached an operand.
func join(ts ...dtag) dtag {
	var out dtag
	for _, t := range ts {
		if t.kind != dClean {
			out.kind = dOpaque
			out.keys = append(out.keys, t.keys...)
		}
	}
	return out
}

func isIntType(t Type) bool { return t == I32 || t == U32 }

// accTerm splits an accumulator definition acc + term (or term + acc) whose
// term does not read acc.
func accTerm(acc *Var, e Expr) (Expr, bool) {
	b, ok := e.(Bin)
	if !ok || b.Op != Add {
		return nil, false
	}
	if r, ok := b.L.(VarRef); ok && r.V == acc && !ReadsVar(b.R, acc) {
		return b.R, true
	}
	if r, ok := b.R.(VarRef); ok && r.V == acc && !ReadsVar(b.L, acc) {
		return b.L, true
	}
	return nil, false
}

// deltaFacts are the tag-independent facts the passes share.
type deltaFacts struct {
	k       *Kernel
	uses    map[*Var]int      // reads in expressions and as store bases (collectUses)
	assigns map[*Var]int      // Assign statements per variable
	accums  map[*Var]bool     // accumulator-shaped variables
	cands   map[*Var]DeltaKey // candidate load sites, by the variable each defines
}

// countReads counts how often v is read in b (collectUses's reads: the
// intrinsics' variable operands are checked separately).
func countReads(b Block, v *Var) int {
	var used []*Var
	for _, s := range b {
		collectUses(s, &used)
	}
	n := 0
	for _, u := range used {
		if u == v {
			n++
		}
	}
	return n
}

func newDeltaFacts(k *Kernel) *deltaFacts {
	f := &deltaFacts{k: k, uses: make(map[*Var]int), assigns: make(map[*Var]int),
		accums: make(map[*Var]bool), cands: make(map[*Var]DeltaKey)}
	var used []*Var
	for _, s := range k.Body {
		collectUses(s, &used)
	}
	for _, v := range used {
		f.uses[v]++
	}
	defs := make(map[*Var]int)
	shaped := make(map[*Var]int) // definitions of the accumulator shape
	terms := make(map[*Var]int)  // of which acc + term
	WalkStmts(k.Body, func(s Stmt) bool {
		var dst *Var
		var e Expr
		switch n := s.(type) {
		case Define:
			dst, e = n.Dst, n.E
			if ld, ok := n.E.(Load); ok && isIntType(dst.Type) && ld.Base != nil && ld.Base.Type == Ptr {
				if c, ok := ld.Index.(Const); ok {
					f.cands[dst] = DeltaKey{Base: ld.Base, Index: c.Bits}
				}
			}
		case Assign:
			dst, e = n.Dst, n.E
			f.assigns[dst]++
		default:
			return true
		}
		defs[dst]++
		if _, ok := e.(Const); ok {
			shaped[dst]++
		} else if _, ok := accTerm(dst, e); ok {
			shaped[dst]++
			terms[dst]++
		}
		return true
	})
	for v, n := range defs {
		// Every definition has the shape and the only expression reads are
		// the accumulator's own terms.
		if v != nil && !v.Param && isIntType(v.Type) && shaped[v] == n && f.uses[v] == terms[v] {
			f.accums[v] = true
		}
	}
	for dst, key := range f.cands {
		if f.assigns[key.Base] > 0 || f.accums[dst] {
			delete(f.cands, dst)
		}
	}
	return f
}

// deltaPass is one classification pass under a fixed set of demoted words;
// bad collects the words whose shift reached an opaque use.
type deltaPass struct {
	*Delta
	f       *deltaFacts
	demoted map[DeltaKey]bool
	bad     []DeltaKey
}

func (p *deltaPass) run() {
	p.block(p.f.k.Body)
	// The intrinsics' variable operands, under the final tags: a check sees
	// an accumulator or an unshifted value, a count only an unshifted one.
	WalkStmts(p.f.k.Body, func(s Stmt) bool {
		switch n := s.(type) {
		case RangeCheck:
			p.checkOperands(n.Accum, n.Count)
		case ProfileSample:
			p.checkOperands(n.Accum, n.Count)
		case EqualCheck:
			p.clean(p.eval(VarRef{V: n.Count}))
		}
		return true
	})
}

func (p *deltaPass) checkOperands(accum, count *Var) {
	if t := p.tags[accum]; t.kind != dClean && t.kind != dAcc {
		p.bad = append(p.bad, t.keys...)
	}
	if count != nil {
		p.clean(p.eval(VarRef{V: count}))
	}
}

// clean requires t to be unshifted.
func (p *deltaPass) clean(t dtag) {
	if t.kind != dClean {
		p.bad = append(p.bad, t.keys...)
	}
}

func (p *deltaPass) block(b Block) {
	for i, s := range b {
		switch n := s.(type) {
		case Define:
			p.define(n.Dst, n.E, b[i+1:])
		case Assign:
			if p.f.accums[n.Dst] {
				p.accumulate(n.Dst, n.E)
			} else {
				p.clean(p.eval(n.E))
			}
		case Store:
			p.store(n)
		case *If:
			p.clean(p.eval(n.Cond))
			p.block(n.Then)
			p.block(n.Else)
		case *For:
			p.clean(join(p.eval(n.Init), p.eval(n.Limit), p.eval(n.Step)))
			p.block(n.Body)
		case *While:
			p.clean(p.eval(n.Cond))
			p.block(n.Body)
		case EqualCheck:
			p.clean(p.eval(n.Expected))
		}
	}
}

func (p *deltaPass) define(dst *Var, e Expr, rest Block) {
	if p.f.accums[dst] {
		p.accumulate(dst, e)
		return
	}
	if key, ok := p.f.cands[dst]; ok && !p.demoted[key] {
		if p.shifted(dst, key, rest) {
			p.loads[dst] = key
		}
		return
	}
	switch t := p.eval(e); t.kind {
	case dClean:
	case dShift:
		if isIntType(dst.Type) {
			p.shifted(dst, t.keys[0], rest)
		} else {
			p.bad = append(p.bad, t.keys...)
		}
	default:
		p.bad = append(p.bad, t.keys...)
	}
}

// shifted tags dst, defined at the head of rest, with key's shift if the
// scope rule holds: dst is never re-assigned, every read of it lies in
// rest, and rest does not redefine key's pointer.
func (p *deltaPass) shifted(dst *Var, key DeltaKey, rest Block) bool {
	redefined := false
	WalkStmts(rest, func(s Stmt) bool {
		if d, ok := s.(Define); ok && d.Dst == key.Base {
			redefined = true
		}
		return true
	})
	if p.f.assigns[dst] > 0 || countReads(rest, dst) != p.f.uses[dst] || redefined {
		p.bad = append(p.bad, key)
		return false
	}
	p.tags[dst] = dtag{kind: dShift, keys: []DeltaKey{key}}
	return true
}

func (p *deltaPass) accumulate(acc *Var, e Expr) {
	term, ok := accTerm(acc, e)
	if !ok {
		return // a constant: the accumulator restarts
	}
	switch t := p.eval(term); t.kind {
	case dClean:
	case dShift:
		cur := p.tags[acc]
		p.tags[acc] = dtag{kind: dAcc, keys: append(cur.keys, t.keys...)}
	default:
		p.bad = append(p.bad, t.keys...)
	}
}

func (p *deltaPass) store(st Store) {
	p.clean(join(p.eval(VarRef{V: st.Base}), p.eval(st.Index)))
	c, constIdx := st.Index.(Const)
	switch t := p.eval(st.Val); t.kind {
	case dShift:
		if !constIdx || t.keys[0] != (DeltaKey{Base: st.Base, Index: c.Bits}) {
			p.bad = append(p.bad, t.keys...)
		}
	case dClean:
		// An unshifted value stored over a word a candidate site loads
		// resets that word's shift: the site cannot be transparent.
		for _, key := range p.f.cands {
			if key.Base == st.Base && (!constIdx || key.Index == c.Bits) && !p.demoted[key] {
				p.bad = append(p.bad, key)
			}
		}
	default:
		p.bad = append(p.bad, t.keys...)
	}
}

// maxLive estimates peak register pressure: variables are assigned linear
// positions in preorder; a variable is live from its definition to its last
// use, extended to the end of any loop that uses it but defines it outside.
func maxLive(k *Kernel) int {
	type interval struct{ def, last int }
	live := make(map[*Var]*interval)
	pos := 0

	var walk func(b Block) int // returns position after block
	walk = func(b Block) int {
		for _, s := range b {
			pos++
			here := pos
			if d := StmtDef(s); d != nil {
				if live[d] == nil {
					live[d] = &interval{def: here, last: here}
				} else if live[d].last < here {
					live[d].last = here
				}
			}
			var used []*Var
			for _, e := range StmtExprs(nil, s) {
				used = ExprUses(used, e)
			}
			if st, ok := s.(Store); ok {
				used = append(used, st.Base)
			}
			start := here
			switch n := s.(type) {
			case *If:
				walk(n.Then)
				walk(n.Else)
			case *For:
				walk(n.Body)
			case *While:
				walk(n.Body)
			}
			end := pos
			// Uses recorded at statement entry; inner-block uses were
			// handled recursively, but vars defined before a loop and used
			// inside must live to the loop's end.
			switch s.(type) {
			case *For, *While:
				WalkStmts(Block{s}, func(inner Stmt) bool {
					var iu []*Var
					for _, e := range StmtExprs(nil, inner) {
						iu = ExprUses(iu, e)
					}
					for _, v := range iu {
						if iv := live[v]; iv != nil && iv.def < start {
							if iv.last < end {
								iv.last = end
							}
						}
					}
					return true
				})
			}
			for _, v := range used {
				if iv := live[v]; iv != nil {
					if iv.last < here {
						iv.last = here
					}
				} else {
					live[v] = &interval{def: 0, last: here} // parameter
				}
			}
		}
		return pos
	}
	walk(k.Body)

	// Sweep.
	type ev struct {
		at    int
		delta int
	}
	var evs []ev
	for _, iv := range live {
		evs = append(evs, ev{iv.def, +1}, ev{iv.last + 1, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
