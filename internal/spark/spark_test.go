package spark

import (
	"math"
	"testing"
	"time"

	"dashdb/internal/core"
	"dashdb/internal/types"
)

// testShards hash-partitions rows of a "points" table over four shard
// engines, as the MPP layer would.
func testShards(t testing.TB, rows int) []*core.DB {
	t.Helper()
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "x1", Kind: types.KindFloat, Nullable: true},
		{Name: "x2", Kind: types.KindFloat, Nullable: true},
		{Name: "label", Kind: types.KindFloat, Nullable: true},
	}
	buckets := make([][]types.Row, 4)
	for i := 0; i < rows; i++ {
		x1 := float64(i%100) / 10
		x2 := float64((i*7)%100) / 10
		label := 3*x1 - 2*x2 + 5 // exact linear relationship
		row := types.Row{types.NewInt(int64(i)), types.NewFloat(x1), types.NewFloat(x2), types.NewFloat(label)}
		s := row[0].Hash() % uint64(len(buckets))
		buckets[s] = append(buckets[s], row)
	}
	shards := make([]*core.DB, len(buckets))
	for s := range shards {
		shards[s] = core.Open(core.Config{BufferPoolBytes: 8 << 20, Parallelism: 2})
		tbl, err := shards[s].CreateTable("points", schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertBatch(buckets[s]); err != nil {
			t.Fatal(err)
		}
	}
	return shards
}

func newDispatcher(t testing.TB, rows int) ([]*core.DB, *Dispatcher) {
	t.Helper()
	shards := testShards(t, rows)
	d, err := NewDispatcher(shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return shards, d
}

func TestDatasetTableLoad(t *testing.T) {
	_, d := newDispatcher(t, 1000)
	id := d.SubmitFunc("alice", "load", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.Count(), nil
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1000 {
		t.Fatalf("count %v", res)
	}
}

func TestDatasetPartitionsMatchShards(t *testing.T) {
	c, d := newDispatcher(t, 400)
	id := d.SubmitFunc("alice", "parts", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.Partitions(), nil
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != len(c) {
		t.Fatalf("partitions %v, shards %d", res, len(c))
	}
}

func TestPushdownReducesTransfer(t *testing.T) {
	_, d := newDispatcher(t, 2000)
	run := func(where string) int64 {
		before, _ := d.TransferStats()
		id := d.SubmitFunc("alice", "q", func(ctx *Context) (interface{}, error) {
			ds, err := ctx.Table("points", where)
			if err != nil {
				return nil, err
			}
			return ds.Count(), nil
		})
		if _, err := d.Wait(id); err != nil {
			t.Fatal(err)
		}
		after, _ := d.TransferStats()
		return after - before
	}
	full := run("")
	pushed := run("id < 100")
	if full != 2000 {
		t.Fatalf("full transfer rows %d", full)
	}
	if pushed != 100 {
		t.Fatalf("pushdown transfer rows %d, want 100", pushed)
	}
}

func TestMapFilterCollect(t *testing.T) {
	_, d := newDispatcher(t, 500)
	id := d.SubmitFunc("alice", "mf", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "", "ID", "X1")
		if err != nil {
			return nil, err
		}
		doubled := ds.Map(func(r types.Row) types.Row {
			return types.Row{r[0], types.NewFloat(r[1].Float() * 2)}
		})
		big := doubled.Filter(func(r types.Row) bool { return r[1].Float() > 15 })
		return big.Count(), nil
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	// x1 in [0,9.9], doubled > 15 ⇔ x1 > 7.5 ⇔ i%100 in 76..99 → 24%.
	if res.(int) != 500*24/100 {
		t.Fatalf("filtered count %v", res)
	}
}

func TestReduceByKey(t *testing.T) {
	_, d := newDispatcher(t, 100)
	id := d.SubmitFunc("alice", "rbk", func(ctx *Context) (interface{}, error) {
		rows := []types.Row{
			{types.NewString("a"), types.NewInt(1)},
			{types.NewString("b"), types.NewInt(10)},
			{types.NewString("a"), types.NewInt(2)},
		}
		ds := ctx.Parallelize(rows)
		m := ds.ReduceByKey(0, 1, func(a, b types.Value) types.Value {
			return types.NewInt(a.Int() + b.Int())
		})
		return m[types.NewString("a")].Int(), nil
	})
	res, err := d.Wait(id)
	if err != nil || res.(int64) != 3 {
		t.Fatalf("reduceByKey %v err %v", res, err)
	}
}

func TestGLMLinearRegression(t *testing.T) {
	_, d := newDispatcher(t, 2000)
	id := d.SubmitFunc("alice", "glm", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.TrainGLM(3, []int{1, 2}, GLMConfig{Family: Gaussian, Iterations: 500, LearnRate: 0.3})
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*GLMModel)
	// True model: label = 3*x1 - 2*x2 + 5.
	if math.Abs(m.Weights[0]-3) > 0.05 || math.Abs(m.Weights[1]+2) > 0.05 || math.Abs(m.Intercept-5) > 0.2 {
		t.Fatalf("GLM fit w=%v b=%v", m.Weights, m.Intercept)
	}
	if m.Loss[len(m.Loss)-1] > m.Loss[0] {
		t.Fatal("loss did not decrease")
	}
	if p := m.Predict([]float64{1, 1}); math.Abs(p-6) > 0.3 {
		t.Fatalf("predict %v", p)
	}
}

func TestGLMLogisticRegression(t *testing.T) {
	_, d := newDispatcher(t, 100)
	id := d.SubmitFunc("alice", "logit", func(ctx *Context) (interface{}, error) {
		// Separable data: label = 1 iff x > 5.
		var rows []types.Row
		for i := 0; i < 400; i++ {
			x := float64(i % 10)
			label := 0.0
			if x > 5 {
				label = 1
			}
			rows = append(rows, types.Row{types.NewFloat(x), types.NewFloat(label)})
		}
		ds := ctx.Parallelize(rows)
		return ds.TrainGLM(1, []int{0}, GLMConfig{Family: Binomial, Iterations: 400, LearnRate: 0.5})
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*GLMModel)
	if m.Predict([]float64{9}) < 0.8 || m.Predict([]float64{1}) > 0.2 {
		t.Fatalf("logistic fit predicts %v / %v", m.Predict([]float64{9}), m.Predict([]float64{1}))
	}
}

func TestKMeans(t *testing.T) {
	_, d := newDispatcher(t, 100)
	id := d.SubmitFunc("alice", "kmeans", func(ctx *Context) (interface{}, error) {
		var rows []types.Row
		for i := 0; i < 50; i++ {
			rows = append(rows, types.Row{types.NewFloat(float64(i % 5)), types.NewFloat(0)})
			rows = append(rows, types.Row{types.NewFloat(100 + float64(i%5)), types.NewFloat(0)})
		}
		ds := ctx.Parallelize(rows)
		return ds.KMeans([]int{0, 1}, 2, 20)
	})
	res, err := d.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*KMeansModel)
	lo, hi := m.Centers[0][0], m.Centers[1][0]
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo-2) > 1 || math.Abs(hi-102) > 1 {
		t.Fatalf("centers %v", m.Centers)
	}
	if m.Assign([]float64{1, 0}) == m.Assign([]float64{101, 0}) {
		t.Fatal("assignment does not separate clusters")
	}
}

func TestPerUserIsolation(t *testing.T) {
	_, d := newDispatcher(t, 100)
	idA := d.SubmitFunc("alice", "a", func(ctx *Context) (interface{}, error) { return 1, nil })
	idB := d.SubmitFunc("bob", "b", func(ctx *Context) (interface{}, error) { return 2, nil })
	d.Wait(idA)
	d.Wait(idB)
	if d.Managers() != 2 {
		t.Fatalf("managers %d, want one per user", d.Managers())
	}
	// Users cannot see each other's jobs.
	if _, err := d.Status("alice", idB); err == nil {
		t.Fatal("alice must not see bob's job")
	}
	if jobs := d.Jobs("alice"); len(jobs) != 1 || jobs[0].ID != idA {
		t.Fatalf("alice's jobs %v", jobs)
	}
}

func TestJobLifecycleAndFailure(t *testing.T) {
	_, d := newDispatcher(t, 10)
	id := d.SubmitFunc("alice", "boom", func(ctx *Context) (interface{}, error) {
		return nil, errFromApp
	})
	if _, err := d.Wait(id); err == nil {
		t.Fatal("failing app must surface error")
	}
	st, _ := d.Status("alice", id)
	if st.State != JobFailed {
		t.Fatalf("state %v", st.State)
	}
	// Panic containment.
	id2 := d.SubmitFunc("alice", "panic", func(ctx *Context) (interface{}, error) {
		panic("kaboom")
	})
	if _, err := d.Wait(id2); err == nil {
		t.Fatal("panicking app must surface error")
	}
	// Unregistered app.
	if _, err := d.Submit("alice", "ghost"); err == nil {
		t.Fatal("unregistered app must fail")
	}
}

var errFromApp = errTest("app failed")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestJobCancel(t *testing.T) {
	_, d := newDispatcher(t, 100)
	started := make(chan bool)
	id := d.SubmitFunc("alice", "slow", func(ctx *Context) (interface{}, error) {
		close(started)
		for i := 0; i < 1000; i++ {
			time.Sleep(time.Millisecond)
			ctx.checkCancelled()
		}
		return nil, nil
	})
	<-started
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(id); err == nil {
		t.Fatal("cancelled job must not succeed")
	}
	st, _ := d.Status("alice", id)
	if st.State != JobCancelled {
		t.Fatalf("state %v", st.State)
	}
}

func TestRegisteredAppAndSQLProcedures(t *testing.T) {
	c, d := newDispatcher(t, 500)
	d.RegisterApp("countPoints", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.Count(), nil
	})
	// SQL interface on shard 0's engine.
	db := c[0]
	RegisterProcedures(db, d)
	sess := db.NewSession()
	sess.SetUser("carol")
	r, err := sess.Exec(`CALL SPARK_SUBMIT('countPoints')`)
	if err != nil {
		t.Fatal(err)
	}
	jobID := r.Rows[0][0].Int()
	if _, err := sess.Exec(`CALL SPARK_WAIT(` + r.Rows[0][0].String() + `)`); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Exec(`CALL SPARK_STATUS(` + r.Rows[0][0].String() + `)`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows[0][2].Str() != "DONE" {
		t.Fatalf("status %v", st.Rows[0])
	}
	res, err := d.Wait(jobID)
	if err != nil || res.(int) != 500 {
		t.Fatalf("result %v err %v", res, err)
	}
}

func TestDataServerErrors(t *testing.T) {
	_, d := newDispatcher(t, 10)
	id := d.SubmitFunc("alice", "missing", func(ctx *Context) (interface{}, error) {
		_, err := ctx.Table("no_such_table", "")
		return nil, err
	})
	if _, err := d.Wait(id); err == nil {
		t.Fatal("missing table must fail")
	}
}
