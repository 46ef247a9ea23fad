package sqlfront

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// Catalog describes the base relations visible to the query: who owns
// each and, on the owner's side, the data itself.
type Catalog struct {
	Tables map[string]*TableDef
}

// For returns role's view of c: a copy whose tables keep Rel only where
// role is the Owner, as core.Query.For does for a query. c itself is
// left as it was.
func (c *Catalog) For(role mpc.Role) *Catalog {
	v := &Catalog{Tables: make(map[string]*TableDef, len(c.Tables))}
	for name, t := range c.Tables {
		d := *t
		if d.Owner != role {
			d.Rel = nil
		}
		v.Tables[name] = &d
	}
	return v
}

// TableDef is one catalog entry. Rel may be nil on the non-owner's side;
// Columns and N are public.
type TableDef struct {
	Owner   mpc.Role
	Columns []relation.Attr
	N       int
	Rel     *relation.Relation
}

// Compiled is an executable secure query: both parties compile the same
// SQL against their own catalog view and call Exec.
type Compiled struct {
	Stmt *Statement
	// Output lists the result attributes (the unified join-class names of
	// the GROUP BY columns).
	Output []relation.Attr
	// Avg marks the AVG composition (two runs + division).
	Avg bool

	tables []compiledTable
}

// compiledTable is one prepared input relation.
type compiledTable struct {
	name  string
	owner mpc.Role
	// build derives the masked, renamed, annotated input relation from
	// the base table; annotIdx selects the annotation variant (0 = main;
	// 1 = the COUNT side of AVG).
	schema relation.Schema
	n      int
	rel    [2]*relation.Relation // nil on non-owner side
}

// Compile type-checks the statement against the catalog and prepares the
// per-relation inputs (column unification, selection masking, annotation
// assignment).
func Compile(st *Statement, cat *Catalog) (*Compiled, error) {
	tdefs := make(map[string]*TableDef, len(st.Tables))
	for _, t := range st.Tables {
		def, ok := cat.Tables[t]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", t)
		}
		if _, dup := tdefs[t]; dup {
			return nil, fmt.Errorf("sql: table %q listed twice", t)
		}
		tdefs[t] = def
	}
	colIndex := func(c ColumnRef) (int, error) {
		def, ok := tdefs[c.Table]
		if !ok {
			return 0, fmt.Errorf("sql: column %s references a table not in FROM", c)
		}
		for i, a := range def.Columns {
			if strings.EqualFold(string(a), c.Column) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("sql: table %s has no column %s", c.Table, c.Column)
	}

	// Unify join columns: union-find over qualified columns; every class
	// gets one shared attribute name so the natural-join machinery joins
	// exactly the predicated columns.
	uf := newUnionFind()
	for _, c := range allColumns(st) {
		if _, err := colIndex(c); err != nil {
			return nil, err
		}
		uf.add(c)
	}
	for _, j := range st.Joins {
		if j.Left.Table == j.Right.Table {
			return nil, fmt.Errorf("sql: self-join predicate %s = %s not supported", j.Left, j.Right)
		}
		uf.union(j.Left, j.Right)
	}
	className := uf.classNames()

	// Columns each relation carries: its group-by columns plus every
	// join-predicate column (other columns fold into annotations or
	// selections and are projected away).
	carried := map[string][]ColumnRef{}
	add := func(c ColumnRef) {
		for _, e := range carried[c.Table] {
			if e == c {
				return
			}
		}
		carried[c.Table] = append(carried[c.Table], c)
	}
	for _, c := range st.GroupCols {
		add(c)
	}
	for _, j := range st.Joins {
		add(j.Left)
		add(j.Right)
	}
	// Deterministic column order.
	for t := range carried {
		cols := carried[t]
		sort.Slice(cols, func(a, b int) bool { return cols[a].Column < cols[b].Column })
	}

	// Annotation factors per table.
	annotFactors := map[string][]Factor{}
	for _, f := range st.AggFactors {
		if f.Col == nil {
			// Pure constants multiply into the first table's annotation.
			annotFactors[st.Tables[0]] = append(annotFactors[st.Tables[0]], f)
			continue
		}
		annotFactors[f.Col.Table] = append(annotFactors[f.Col.Table], f)
	}
	// Selections per table.
	sels := map[string][]Selection{}
	for _, s := range st.Selections {
		if _, err := colIndex(s.Col); err != nil {
			return nil, err
		}
		sels[s.Col.Table] = append(sels[s.Col.Table], s)
	}

	comp := &Compiled{Stmt: st, Avg: st.Agg == AggAvg}
	for _, c := range st.GroupCols {
		comp.Output = append(comp.Output, className[uf.find(c)])
	}
	if err := uniqueAttrs(comp.Output); err != nil {
		return nil, fmt.Errorf("sql: group-by columns unify to the same attribute: %w", err)
	}

	for _, t := range st.Tables {
		def := tdefs[t]
		var attrs []relation.Attr
		var srcCols []int
		for _, c := range carried[t] {
			attrs = append(attrs, className[uf.find(c)])
			idx, _ := colIndex(c)
			srcCols = append(srcCols, idx)
		}
		schema, err := relation.NewSchema(attrs...)
		if err != nil {
			return nil, fmt.Errorf("sql: table %s: two of its columns are join-unified with each other: %w", t, err)
		}
		ct := compiledTable{name: t, owner: def.Owner, schema: schema, n: def.N}
		if def.Rel != nil {
			pred, err := buildPredicate(def.Rel, sels[t])
			if err != nil {
				return nil, err
			}
			main, err := buildAnnot(def.Rel, annotFactors[t])
			if err != nil {
				return nil, err
			}
			ct.rel[0] = def.Rel.Mask(schema, srcCols, pred, main, new(relation.DummyGen))
			if comp.Avg {
				// The COUNT side: every annotation is 1 (same masking).
				ct.rel[1] = def.Rel.Mask(schema, srcCols, pred, func([]uint64) uint64 { return 1 }, new(relation.DummyGen))
			}
		}
		comp.tables = append(comp.tables, ct)
	}
	return comp, nil
}

func allColumns(st *Statement) []ColumnRef {
	var out []ColumnRef
	out = append(out, st.GroupCols...)
	for _, j := range st.Joins {
		out = append(out, j.Left, j.Right)
	}
	for _, f := range st.AggFactors {
		if f.Col != nil {
			out = append(out, *f.Col)
		}
	}
	for _, s := range st.Selections {
		out = append(out, s.Col)
	}
	return out
}

func uniqueAttrs(attrs []relation.Attr) error {
	seen := map[relation.Attr]bool{}
	for _, a := range attrs {
		if seen[a] {
			return fmt.Errorf("duplicate attribute %q", a)
		}
		seen[a] = true
	}
	return nil
}

// buildPredicate compiles a table's selections to a row predicate.
func buildPredicate(rel *relation.Relation, sels []Selection) (func([]uint64) bool, error) {
	if len(sels) == 0 {
		return nil, nil
	}
	type check struct {
		col    int
		op     CompareOp
		consts []uint64
	}
	var checks []check
	for _, s := range sels {
		idx := rel.Schema.Index(relation.Attr(s.Col.Column))
		if idx < 0 {
			return nil, fmt.Errorf("sql: table has no column %s", s.Col)
		}
		checks = append(checks, check{idx, s.Op, s.Consts})
	}
	return func(row []uint64) bool {
		for _, c := range checks {
			v := row[c.col]
			switch c.op {
			case OpEq:
				if v != c.consts[0] {
					return false
				}
			case OpNe:
				if v == c.consts[0] {
					return false
				}
			case OpLt:
				if v >= c.consts[0] {
					return false
				}
			case OpLe:
				if v > c.consts[0] {
					return false
				}
			case OpGt:
				if v <= c.consts[0] {
					return false
				}
			case OpGe:
				if v < c.consts[0] {
					return false
				}
			case OpIn:
				found := false
				for _, x := range c.consts {
					if v == x {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}, nil
}

// buildAnnot compiles a table's aggregate factors to an annotation
// function (product of columns, constants, and (C - column) terms).
func buildAnnot(rel *relation.Relation, factors []Factor) (func([]uint64) uint64, error) {
	type term struct {
		col      int // -1 for pure constant
		constant uint64
		minus    bool
	}
	var terms []term
	for _, f := range factors {
		t := term{col: -1, constant: f.Const, minus: f.MinusCol}
		if f.Col != nil {
			idx := rel.Schema.Index(relation.Attr(f.Col.Column))
			if idx < 0 {
				return nil, fmt.Errorf("sql: table has no column %s", f.Col)
			}
			t.col = idx
		}
		terms = append(terms, t)
	}
	return func(row []uint64) uint64 {
		v := uint64(1)
		for _, t := range terms {
			switch {
			case t.col < 0:
				v *= t.constant
			case t.minus:
				v *= t.constant - row[t.col]
			default:
				v *= row[t.col]
			}
		}
		return v
	}, nil
}

// query builds the core query for one annotation variant.
func (c *Compiled) query(role mpc.Role, variant int) *core.Query {
	q := &core.Query{Output: c.Output}
	for _, t := range c.tables {
		in := core.Input{Name: t.name, Owner: t.owner, Schema: t.schema, N: t.n}
		if role == t.owner {
			in.Rel = t.rel[variant]
		}
		q.Inputs = append(q.Inputs, in)
	}
	return q
}

// Check verifies the compiled query is free-connex without running it.
func (c *Compiled) Check() error {
	_, err := c.query(mpc.Alice, 0).Hypergraph().Plan(c.Output)
	return err
}

// Exec runs the compiled query as party p under opts. For SUM/COUNT this
// is one secure Yannakakis execution; for AVG it is the §7 composition:
// two shared runs (sum and count over identical tuples) divided by a
// final circuit. Alice receives the result relation; Bob receives nil.
func (c *Compiled) Exec(ctx context.Context, p *mpc.Party, opts core.Options) (*relation.Relation, error) {
	if !c.Avg {
		rel, _, err := core.Run(ctx, p, c.query(p.Role, 0), opts)
		return rel, err
	}
	sum, _, err := core.RunShared(ctx, p, c.query(p.Role, 0), opts)
	if err != nil {
		return nil, fmt.Errorf("sql: AVG sum pass: %w", err)
	}
	cnt, _, err := core.RunShared(ctx, p, c.query(p.Role, 1), opts)
	if err != nil {
		return nil, fmt.Errorf("sql: AVG count pass: %w", err)
	}
	pp, release := p.WithContext(ctx)
	defer release()
	return core.RevealRatio(pp, sum, cnt, 1)
}

// unionFind over qualified columns.
type unionFind struct {
	parent map[ColumnRef]ColumnRef
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[ColumnRef]ColumnRef{}}
}

func (u *unionFind) add(c ColumnRef) {
	if _, ok := u.parent[c]; !ok {
		u.parent[c] = c
	}
}

func (u *unionFind) find(c ColumnRef) ColumnRef {
	u.add(c)
	for u.parent[c] != c {
		u.parent[c] = u.parent[u.parent[c]]
		c = u.parent[c]
	}
	return c
}

func (u *unionFind) union(a, b ColumnRef) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// classNames assigns a deterministic shared attribute name to every
// equivalence class: the lexicographically smallest member's column name,
// qualified with its table when two different classes would collide.
func (u *unionFind) classNames() map[ColumnRef]relation.Attr {
	members := map[ColumnRef][]ColumnRef{}
	for c := range u.parent {
		r := u.find(c)
		members[r] = append(members[r], c)
	}
	name := map[ColumnRef]relation.Attr{}
	used := map[relation.Attr]ColumnRef{}
	var roots []ColumnRef
	for r := range members {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].String() < roots[j].String()
	})
	for _, r := range roots {
		ms := members[r]
		sort.Slice(ms, func(i, j int) bool { return ms[i].String() < ms[j].String() })
		candidate := relation.Attr(ms[0].Column)
		if owner, taken := used[candidate]; taken && owner != r {
			candidate = relation.Attr(ms[0].Table + "_" + ms[0].Column)
		}
		used[candidate] = r
		name[r] = candidate
	}
	// Map every member to its class name.
	out := map[ColumnRef]relation.Attr{}
	for r, ms := range members {
		for _, m := range ms {
			out[m] = name[r]
		}
	}
	return out
}
