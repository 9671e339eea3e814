package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dashdb/internal/core"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// The analytic statement set: the 30 Financial analytic queries (all on
// the scatter/partial-aggregate fast path) and three shuffle joins of
// transactions with accounts_d on account_id, which is not accounts_d's
// distribution key. History runs 2010-01-01 .. 2016-12-30.
var joinTemplates = []struct{ name, sql string }{
	{"join_a", "SELECT a.sector, COUNT(*), SUM(t.amount) FROM transactions t INNER JOIN accounts_d a ON t.account_id = a.account_id GROUP BY a.sector ORDER BY a.sector"},
	{"join_b", "SELECT t.status, COUNT(*), COUNT(a.customer) FROM transactions t LEFT JOIN accounts_d a ON t.account_id = a.account_id WHERE t.txn_date >= DATE '2016-07-01' GROUP BY t.status ORDER BY t.status"},
	{"join_c", "SELECT a.sector, COUNT(*), MAX(t.amount) FROM transactions t INNER JOIN accounts_d a ON t.account_id = a.account_id WHERE t.txn_date >= DATE '2016-10-15' GROUP BY a.sector ORDER BY a.sector"},
}

func analyticQueries(scale int) []string {
	specs := workload.NewFinancial(scale, 0).AnalyticQueries(30)
	out := make([]string, len(specs))
	for i := range specs {
		out[i] = specs[i].SQL()
	}
	return out
}

// oracle holds the single-node answer to every analytic statement.
type oracle map[string][]types.Row

// buildOracle loads the dataset into a single-node core.DB, an engine
// that shares no code with the distributed coordinator, and records its
// answers.
func buildOracle(d *dataset, stmts []string) (oracle, error) {
	db := core.Open(core.Config{BufferPoolBytes: 256 << 20, SortHeapBytes: 256 << 20, HashHeapBytes: 256 << 20})
	defer db.Close()
	for _, t := range []struct {
		name string
		sch  types.Schema
		rows []types.Row
	}{{"transactions", d.txnSch, d.txns}, {"accounts", d.accSch, d.accounts}, {"accounts_d", d.accSch, d.accounts}} {
		tbl, err := db.CreateTable(t.name, t.sch)
		if err != nil {
			return nil, err
		}
		if err := tbl.InsertBatch(t.rows); err != nil {
			return nil, fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	sess := db.NewSession()
	o := make(oracle, len(stmts))
	for _, s := range stmts {
		res, err := sess.Query(s)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", s, err)
		}
		o[s] = res.Rows
	}
	return o, nil
}

// floatTolerance bounds the relative difference allowed between float
// cells. Float SUM and AVG depend on summation order, which differs
// between 6 shard partials and the single engine's own partials, and
// between shuffle arrival orders of one query run twice; the engine
// does not make them bit-identical. 1e-12 is far below the smallest effect of one lost or
// duplicated row (an amount of at least 0.01 in a sum below 1e9).
const floatTolerance = 1e-12

// verdict of comparing an answer with the oracle.
type verdict int

const (
	exact   verdict = iota // bit-identical
	inexact                // equal except float cells within floatTolerance
	wrong
)

// compareRows checks got against want. Rows are compared in order when
// the statement orders them, and as a multiset otherwise.
func compareRows(got, want []types.Row, ordered bool) (verdict, string) {
	if len(got) != len(want) {
		return wrong, fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got, want = canonical(got), canonical(want)
	}
	v := exact
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return wrong, fmt.Sprintf("row %d: %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			switch cellVerdict(got[i][j], want[i][j]) {
			case inexact:
				v = inexact
			case wrong:
				return wrong, fmt.Sprintf("row %d col %d: %s, want %s", i, j, got[i][j], want[i][j])
			}
		}
	}
	return v, ""
}

func cellVerdict(a, b types.Value) verdict {
	if a.IsNull() || b.IsNull() {
		if a.IsNull() && b.IsNull() {
			return exact
		}
		return wrong
	}
	if a.Kind() != b.Kind() {
		return wrong
	}
	if a.Kind() == types.KindFloat {
		x, y := a.Float(), b.Float()
		switch {
		case math.Float64bits(x) == math.Float64bits(y):
			return exact
		case math.Abs(x-y) <= floatTolerance*math.Max(math.Abs(x), math.Abs(y)):
			return inexact
		}
		return wrong
	}
	if types.Compare(a, b) != 0 || a.String() != b.String() {
		return wrong
	}
	return exact
}

// canonical sorts rows by their non-float cells, then by the float
// cells' text: grouped results without ORDER BY come back in any order.
func canonical(rows []types.Row) []types.Row {
	type keyed struct {
		key, floats string
		row         types.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		var key, floats strings.Builder
		for _, v := range r {
			if !v.IsNull() && v.Kind() == types.KindFloat {
				floats.WriteString(v.String() + "\x00")
			} else {
				key.WriteString(v.String() + "\x00")
			}
		}
		ks[i] = keyed{key.String(), floats.String(), r}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		return ks[i].floats < ks[j].floats
	})
	out := make([]types.Row, len(ks))
	for i := range ks {
		out[i] = ks[i].row
	}
	return out
}

// corrupt changes one cell of one oracle answer; the test that proves
// the correctness gate is not vacuous uses it.
func (o oracle) corrupt(stmt string) {
	rows := o[stmt]
	if len(rows) == 0 {
		return
	}
	r := append(types.Row(nil), rows[0]...)
	last := len(r) - 1
	switch r[last].Kind() {
	case types.KindFloat:
		r[last] = types.NewFloat(r[last].Float() + 1)
	default:
		r[last] = types.NewInt(r[last].Int() + 1)
	}
	rows = append([]types.Row{r}, rows[1:]...)
	o[stmt] = rows
}
