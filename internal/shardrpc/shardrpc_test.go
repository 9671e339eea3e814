package shardrpc

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameType(1+i%4), p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		ft, got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != FrameType(1+i%4) {
			t.Fatalf("frame %d: type %d", i, ft)
		}
		if len(got) != len(p) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0x00, 1, 1, 0, 0, 0, 0, 0},        // bad magic
		{frameMagic, 9, 1, 0, 0, 0, 0, 0},  // bad version
		{frameMagic, 1, 0, 0, 0, 0, 0, 0},  // invalid type
		{frameMagic, 1, 99, 0, 0, 0, 0, 0}, // type out of range
		{frameMagic, 1, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF}, // oversized
	}
	for i, c := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: accepted garbage header", i)
		}
	}
}

func sampleRows() []types.Row {
	return []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(1.5), types.NewBool(true)},
		{types.NewInt(-7), types.NewString("north"), types.NewFloat(math.NaN()), types.NewBool(false)},
		{types.NullOf(types.KindInt), types.NewString("south"), types.NullOf(types.KindFloat), types.NullOf(types.KindBool)},
		{types.NewInt(1 << 40), types.NewString("unique-once"), types.NewFloat(-0.0), types.NewBool(true)},
		{types.NewInt(0), types.NewString("north"), types.NewDate(19000), types.NewTimestamp(1e9)},
	}
}

func TestRowBlockRoundTrip(t *testing.T) {
	rows := sampleRows()
	block, err := EncodeRowBlock(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRowBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			a, b := rows[i][j], got[i][j]
			if a.Kind() != b.Kind() || a.IsNull() != b.IsNull() {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a, b)
			}
			if a.IsNull() {
				continue
			}
			if a.Kind() == types.KindFloat {
				if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
					t.Fatalf("row %d col %d: float bits differ", i, j)
				}
				continue
			}
			if types.Compare(a, b) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a, b)
			}
		}
	}
	// The repeated "north" strings must have earned a dictionary slot:
	// the block stores the literal once plus codes, so it must be
	// smaller than inline encoding of 3x "north" + the rest.
	if n := bytes.Count(block, []byte("north")); n != 1 {
		t.Fatalf("dictionary not applied: %d inline copies of repeated string", n)
	}
	if n := bytes.Count(block, []byte("unique-once")); n != 1 {
		t.Fatalf("unique string should ship inline once, found %d", n)
	}
}

func TestRowBlockEmpty(t *testing.T) {
	block, err := EncodeRowBlock(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DecodeRowBlock(block)
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

// FuzzShuffleFrame fuzzes the two network-facing decoders with raw
// bytes: they must never panic or over-allocate, only return errors.
func FuzzShuffleFrame(f *testing.F) {
	block, _ := EncodeRowBlock(nil, sampleRows())
	f.Add(block)
	var buf bytes.Buffer
	WriteFrame(&buf, FrameShuffleData, appendShuffleHdr(nil, shuffleHdr{Query: 9, Stage: 1, Part: 2, Sender: 3}))
	f.Add(buf.Bytes())
	f.Add([]byte{frameMagic, frameVersion, byte(FrameRows), 0, 0, 0, 0, 4, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeRowBlock(data)
		if h, rest, err := decodeShuffleHdr(data); err == nil {
			_ = h
			DecodeRowBlock(rest)
		}
		ReadFrame(bytes.NewReader(data))
	})
}

// TestWireStatementRoundTrip gob-ships a rewritten AST the way the
// coordinator does and checks the tree survives (the types.Value gob
// codec carries the literals).
func TestWireStatementRoundTrip(t *testing.T) {
	stmts := []string{
		"SELECT region, SUM(amount), COUNT(*) FROM sales WHERE amount > 10.5 AND region <> 'x' GROUP BY region ORDER BY 2 DESC",
		"SELECT a.id, b.v FROM a JOIN b ON a.id = b.id WHERE b.v IN (1, 2, 3)",
		"SELECT CASE WHEN x IS NULL THEN 0 ELSE x + 1 END FROM t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
	}
	for _, src := range stmts {
		st, err := sql.Parse(src, sql.DialectANSI)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		payload, err := encodeGob(&ExecReq{ShardID: 3, Stmt: st, SQL: src})
		if err != nil {
			t.Fatalf("%s: encode: %v", src, err)
		}
		var got ExecReq
		rest, err := decodeGob(payload, &got)
		if err != nil {
			t.Fatalf("%s: decode: %v", src, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", src, len(rest))
		}
		if !reflect.DeepEqual(st, got.Stmt) {
			t.Fatalf("%s: AST did not survive the wire:\n%#v\nvs\n%#v", src, st, got.Stmt)
		}
	}
}

func TestDecodeGobTrailingBytes(t *testing.T) {
	hdr, err := encodeGob(&InsertHdr{ShardID: 1, Table: "t", NRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	block, err := EncodeRowBlock(hdr, sampleRows()[:2])
	if err != nil {
		t.Fatal(err)
	}
	var got InsertHdr
	rest, err := decodeGob(block, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != "t" || got.NRows != 2 {
		t.Fatalf("header %+v", got)
	}
	rows, err := DecodeRowBlock(rest)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
}

// startTestServer brings up a server hosting two shards with one table.
func startTestServer(t *testing.T, fs *clusterfs.FS) *Server {
	t.Helper()
	s := NewServer("testnode", fs)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	req := AdoptReq{
		Shards: []ShardAssign{
			{ID: 0, MemBytes: 8 << 20, SortHeap: 1 << 20, HashHeap: 1 << 20, Parallelism: 2},
			{ID: 1, MemBytes: 8 << 20, SortHeap: 1 << 20, HashHeap: 1 << 20, Parallelism: 2},
		},
		Tables: []TableSpec{{
			Name: "sales",
			ID:   1,
			Schema: types.Schema{
				{Name: "id", Kind: types.KindInt},
				{Name: "region", Kind: types.KindString, Nullable: true},
				{Name: "amount", Kind: types.KindFloat, Nullable: true},
			},
			DistributeBy: "id",
		}},
		Reason: "bootstrap",
	}
	if err := s.Adopt(req); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerExecInsertRoundTrip(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()

	rows := []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("south"), types.NewFloat(20)},
	}
	if err := p.Insert(s.Addr(), 0, "sales", 1, rows); err != nil {
		t.Fatal(err)
	}
	n, err := p.RowCount(s.Addr(), 0, "sales")
	if err != nil || n != 2 {
		t.Fatalf("rowcount %d err %v", n, err)
	}
	st, err := sql.Parse("SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region", sql.DialectANSI)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: st, WithStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "north" {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Stats == nil {
		t.Fatal("no shard ANALYZE record")
	}
	// Statement errors surface as RemoteError, and the connection stays
	// usable for the next request.
	bad, _ := sql.Parse("SELECT nope FROM missing", sql.DialectANSI)
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: bad}); err == nil {
		t.Fatal("expected remote error")
	} else if !strings.Contains(strings.ToLower(err.Error()), "missing") {
		t.Fatalf("unexpected error %v", err)
	}
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: st}); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
	// Ping reports hosted shards.
	info, err := p.Ping(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Shards) != 2 || info.Node != "testnode" {
		t.Fatalf("ping %+v", info)
	}
}

func TestAdoptAcrossServers(t *testing.T) {
	fs := clusterfs.New()
	s1 := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	rows := []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("south"), types.NewFloat(20)},
	}
	if err := p.Insert(s1.Addr(), 1, "sales", 2, rows); err != nil {
		t.Fatal(err)
	}
	// "Kill" server 1; a second server over the SAME filesystem adopts
	// shard 1 with smaller budgets and sees the data (Figure 9).
	s1.Close()
	s2 := NewServer("survivor", fs)
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	err := s2.Adopt(AdoptReq{
		Shards: []ShardAssign{{ID: 1, MemBytes: 4 << 20, SortHeap: 512 << 10, HashHeap: 512 << 10, Parallelism: 1}},
		Tables: []TableSpec{{
			Name: "sales", ID: 1,
			Schema: types.Schema{
				{Name: "id", Kind: types.KindInt},
				{Name: "region", Kind: types.KindString, Nullable: true},
				{Name: "amount", Kind: types.KindFloat, Nullable: true},
			},
		}},
		Reason: "failover",
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.RowCount(s2.Addr(), 1, "sales")
	if err != nil || n != 2 {
		t.Fatalf("adopted rowcount %d err %v", n, err)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	c1, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c1.Release()
	c2, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("healthy connection was not reused")
	}
	c2.Fail()
	c2.Release()
	c3, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Release()
	if c3 == c2 {
		t.Fatal("broken connection was recycled")
	}
}

// TestInsertTokenReplay: a re-sent insert with the same token must not
// duplicate rows — the lost-reply failover retry case. The applied log
// lives on clusterfs, so the dedup must also hold when another server
// adopts the shard after a node death.
func TestInsertTokenReplay(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	rows := []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("south"), types.NewFloat(20)},
	}
	for i := 0; i < 3; i++ {
		if err := p.Insert(s.Addr(), 0, "sales", 77, rows); err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if n, err := p.RowCount(s.Addr(), 0, "sales"); err != nil || n != 2 {
		t.Fatalf("replayed insert duplicated rows: n=%d err=%v", n, err)
	}
	// Token 0 opts out of dedup.
	if err := p.Insert(s.Addr(), 0, "sales", 0, rows); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.RowCount(s.Addr(), 0, "sales"); n != 4 {
		t.Fatalf("token-0 insert should append: n=%d", n)
	}
	// Kill the server; an adopter over the same filesystem must still
	// recognize the token.
	s.Close()
	s2 := NewServer("survivor", fs)
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Adopt(AdoptReq{
		Shards: []ShardAssign{{ID: 0, MemBytes: 4 << 20, SortHeap: 512 << 10, HashHeap: 512 << 10, Parallelism: 1}},
		Tables: []TableSpec{{
			Name: "sales", ID: 1,
			Schema: types.Schema{
				{Name: "id", Kind: types.KindInt},
				{Name: "region", Kind: types.KindString, Nullable: true},
				{Name: "amount", Kind: types.KindFloat, Nullable: true},
			},
		}},
		Reason: "failover",
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(s2.Addr(), 0, "sales", 77, rows); err != nil {
		t.Fatal(err)
	}
	if n, err := p.RowCount(s2.Addr(), 0, "sales"); err != nil || n != 4 {
		t.Fatalf("adopter re-applied a logged token: n=%d err=%v", n, err)
	}
}

// TestExecTokenReplay: non-idempotent DML retried with the same token
// must acknowledge with the recorded affected count instead of applying
// twice (UPDATE amount = amount + 1 must not add 2).
func TestExecTokenReplay(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	if err := p.Insert(s.Addr(), 0, "sales", 5, []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
	}); err != nil {
		t.Fatal(err)
	}
	upd, err := sql.Parse("UPDATE sales SET amount = amount + 1 WHERE id = 1", sql.DialectANSI)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: upd, Token: 9})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: upd, Token: 9})
	if err != nil {
		t.Fatal(err)
	}
	if replay.RowsAffected != first.RowsAffected {
		t.Fatalf("replay affected %d, first %d", replay.RowsAffected, first.RowsAffected)
	}
	check := func(want float64) {
		t.Helper()
		q, _ := sql.Parse("SELECT amount FROM sales WHERE id = 1", sql.DialectANSI)
		res, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: q})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Float(); got != want {
			t.Fatalf("amount %v, want %v", got, want)
		}
	}
	check(11) // applied once, not twice
	// A fresh token applies again.
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: upd, Token: 10}); err != nil {
		t.Fatal(err)
	}
	check(12)
}

// TestShuffleDropFrame: FrameShuffleDrop discards every inbox of one
// query and leaves other queries' inboxes alone.
func TestShuffleDropFrame(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	rows := []types.Row{{types.NewInt(1)}}
	if err := p.SendShuffle(s.Addr(), shuffleHdr{Query: 7, Stage: 0, Part: 1, Sender: 0}, rows); err != nil {
		t.Fatal(err)
	}
	if err := p.SendShuffle(s.Addr(), shuffleHdr{Query: 8, Stage: 0, Part: 0, Sender: 0}, rows); err != nil {
		t.Fatal(err)
	}
	if got := s.Router().InboxCount(); got != 2 {
		t.Fatalf("inboxes %d, want 2", got)
	}
	if err := p.DropShuffle(s.Addr(), 7); err != nil {
		t.Fatal(err)
	}
	if got := s.Router().InboxCount(); got != 1 {
		t.Fatalf("inboxes after drop %d, want 1 (query 8 untouched)", got)
	}
}

// TestShuffleRecvTimeout: with a dead peer (no EOF ever arrives), Recv
// must return the timeout error rather than blocking forever — the
// timer broadcast must not be lost between the deadline check and
// cond.Wait.
func TestShuffleRecvTimeout(t *testing.T) {
	r := NewShuffleRouter()
	r.Wait = 50 * time.Millisecond
	src := r.Source(1, 0, 0, 2) // two senders, neither will ever EOF
	done := make(chan error, 1)
	go func() {
		_, err := src.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned success with senders outstanding")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv blocked far past its timeout (lost wakeup)")
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(&RemoteError{Addr: "x", Msg: "boom"}) {
		t.Fatal("remote errors must not retry")
	}
	if !IsTransient(errFake("connection refused")) {
		t.Fatal("dial refusal should retry")
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

// replyConn is the write half of a connection that records, at each
// write, how many shuffle inboxes the server still holds.
type replyConn struct {
	net.Conn
	out     bytes.Buffer
	inboxes func() int
	seen    []int
}

func (c *replyConn) Write(b []byte) (int, error) {
	c.seen = append(c.seen, c.inboxes())
	return c.out.Write(b)
}

func (c *replyConn) SetWriteDeadline(time.Time) error { return nil }

// TestJoinFragDropsInboxesBeforeReply: a join fragment drops its
// partition's shuffle inboxes before the first byte of its reply, so the
// coordinator never sees a join complete while its inboxes remain.
func TestJoinFragDropsInboxesBeforeReply(t *testing.T) {
	s := startTestServer(t, clusterfs.New())
	sch := types.Schema{{Name: "k", Kind: types.KindInt}}
	for stage := 0; stage < 2; stage++ {
		s.Router().Deliver(9, stage, 0, []types.Row{{types.NewInt(1)}, {types.NewInt(2)}})
		s.Router().EOF(9, stage, 0)
	}
	st, err := sql.Parse("SELECT COUNT(*) FROM b JOIN p ON b.k = p.k", sql.DialectANSI)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeGob(&JoinFragReq{
		Query: 9, ShardID: 0, Part: 0, BuildStage: 0, ProbeStage: 1,
		BuildName: "b", ProbeName: "p", BuildSchema: sch, ProbeSchema: sch,
		Senders: 1, Sel: st.(*sql.SelectStmt),
	})
	if err != nil {
		t.Fatal(err)
	}
	nc := &replyConn{inboxes: s.Router().InboxCount}
	c := serverConn{nc: nc}
	c.init()
	if err := s.handleJoinFrag(&c, payload); err != nil {
		t.Fatal(err)
	}
	if len(nc.seen) == 0 || nc.seen[0] != 0 {
		t.Fatalf("inboxes held at each reply write: %v, want 0 from the first", nc.seen)
	}
	ft, _, err := ReadFrame(bufio.NewReader(&nc.out))
	if err != nil || ft != FrameResultHdr {
		t.Fatalf("first reply frame %d err %v, want the result header", ft, err)
	}
}
