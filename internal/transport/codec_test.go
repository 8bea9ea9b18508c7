package transport

import (
	"encoding/hex"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// requireSameBits compares two messages field by field on their exact bits:
// floats by Float64bits, so a NaN payload or a zero's sign that changed on
// the wire fails; nil and empty sections are the same section.
func requireSameBits(t testing.TB, got, want *Message) {
	t.Helper()
	floats := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s has %d entries, want %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s[%d] = %#x, want %#x", name, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
	words := func(name string, g, w []uint64) {
		if len(g) != len(w) {
			t.Fatalf("%s has %d entries, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s[%d] = %#x, want %#x", name, i, g[i], w[i])
			}
		}
	}
	cursor := func(name string, g, w *Cursor) {
		floats(name+".Sq", []float64{g.SqMean, g.SqM2}, []float64{w.SqMean, w.SqM2})
		if g.RNG != w.RNG || g.SqCount != w.SqCount {
			t.Fatalf("%s = %+v, want %+v", name, *g, *w)
		}
	}
	if got.Type != want.Type || got.ClientID != want.ClientID || got.Round != want.Round ||
		got.LocalSteps != want.LocalSteps || got.BatchSize != want.BatchSize ||
		got.Rounds != want.Rounds || got.Sat != want.Sat {
		t.Fatalf("scalars differ:\n got  %+v\n want %+v", got, want)
	}
	floats("LR/GradSqNorm", []float64{got.LR, got.GradSqNorm}, []float64{want.LR, want.GradSqNorm})
	if (got.Cursor == nil) != (want.Cursor == nil) {
		t.Fatalf("Cursor present = %v, want %v", got.Cursor != nil, want.Cursor != nil)
	}
	if want.Cursor != nil {
		cursor("Cursor", got.Cursor, want.Cursor)
	}
	floats("Model", got.Model, want.Model)
	floats("Scales", got.Scales, want.Scales)
	floats("GradSqs", got.GradSqs, want.GradSqs)
	words("Lo", got.Lo, want.Lo)
	words("Hi", got.Hi, want.Hi)
	if len(got.Clients) != len(want.Clients) || len(got.Cursors) != len(want.Cursors) {
		t.Fatalf("Clients/Cursors have %d/%d entries, want %d/%d",
			len(got.Clients), len(got.Cursors), len(want.Clients), len(want.Cursors))
	}
	for i := range want.Clients {
		if got.Clients[i] != want.Clients[i] {
			t.Fatalf("Clients[%d] = %d, want %d", i, got.Clients[i], want.Clients[i])
		}
	}
	for i := range want.Cursors {
		cursor("Cursors[i]", &got.Cursors[i], &want.Cursors[i])
	}
}

var goldenCursor = Cursor{RNG: [4]uint64{0x0102030405060708, 2, 3, 1 << 63}, SqCount: 9, SqMean: 0.25, SqM2: -0.5}

// goldenMessages pins the version-7 layout: one message of each type with
// its committed frame (length prefix included). A change to any of these
// bytes is a wire-format change and needs a ProtocolVersion bump with it.
var goldenMessages = []struct {
	msg *Message
	hex string
}{
	{&Message{Type: MsgHello, ClientID: 3},
		"00000057010300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgWelcome, ClientID: 3, LocalSteps: 5, BatchSize: 24, Rounds: 40, Cursor: &goldenCursor},
		"0000008f0203000000000000000000000000000000050000000000000018000000000000002800000000000000000000000000000000000000000000000108070605040302010200000000000000030000000000000000000000000000800900000000000000000000000000d03f000000000000e0bf0000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgRoundStart, Round: 7, Model: []float64{0.25, -1.5}, LR: 0.05},
		"0000006703000000000000000007000000000000000000000000000000000000000000000000000000000000009a9999999999a93f00000000000000000002000000000000000000d03f000000000000f8bf00000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgUpdate, ClientID: 3, Round: 7, Model: []float64{math.Copysign(0, -1), 1e-310}, GradSqNorm: 9.5, Cursor: &goldenCursor},
		"0000009f0403000000000000000700000000000000000000000000000000000000000000000000000000000000000000000000000000000000000023400108070605040302010200000000000000030000000000000000000000000000800900000000000000000000000000d03f000000000000e0bf0200000000000000000000802be6708b6812000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgDone},
		"00000057050000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgJoin, ClientID: 5},
		"00000057060500000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgLeave},
		"00000057070000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgBye, ClientID: 2},
		"00000057080200000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgGroupHello, ClientID: 1},
		"00000057090100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgBatchStart, ClientID: 1, Round: 2, LR: 0.1, Model: []float64{1, 2},
		Clients: []int{3, 4}, Scales: []float64{0.5, 0.75}, Cursors: []Cursor{goldenCursor, {}}},
		"000000f70a010000000000000002000000000000000000000000000000000000000000000000000000000000009a9999999999b93f00000000000000000002000000000000000000f03f000000000000004002000000000000000000e03f000000000000e83f0000000002000000030000000000000004000000000000000200000008070605040302010200000000000000030000000000000000000000000000800900000000000000000000000000d03f000000000000e0bf0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{&Message{Type: MsgPartial, ClientID: 1, Round: 2, Clients: []int{3, -1}, GradSqs: []float64{9, math.Inf(1)},
		Cursors: []Cursor{{}, goldenCursor}, Lo: []uint64{1, ^uint64(0)}, Hi: []uint64{2, 1 << 63}, Sat: true},
		"000001070b0100000000000000020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000020000000000000000002240000000000000f07f020000000300000000000000ffffffffffffffff02000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000008070605040302010200000000000000030000000000000000000000000000800900000000000000000000000000d03f000000000000e0bf020000000100000000000000ffffffffffffffff020000000200000000000000000000000000008001"},
}

func TestGoldenWireBytes(t *testing.T) {
	if len(goldenMessages) != int(MsgPartial) {
		t.Fatalf("%d golden messages for %d message types", len(goldenMessages), MsgPartial)
	}
	for i, g := range goldenMessages {
		if g.msg.Type != MsgType(i+1) {
			t.Fatalf("golden %d is a type-%d message", i, g.msg.Type)
		}
		wire := encodeFramed(t, g.msg)
		if got := hex.EncodeToString(wire); got != g.hex {
			t.Errorf("type %d encodes to\n  %s\ncommitted (ProtocolVersion %d)\n  %s", g.msg.Type, got, ProtocolVersion, g.hex)
			continue
		}
		decodeFramed(t, wire, func(_ int, m *Message) { requireSameBits(t, m, g.msg) })
	}
}

// randomMessage draws a message that visits the corners the layout must
// carry exactly: every type, negative and extreme integers, NaNs with
// arbitrary payloads, signed zeros, infinities, subnormals, nil and empty
// sections, and a cursor present or absent.
func randomMessage(rng *rand.Rand) *Message {
	special := []uint64{
		0, 1 << 63, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, // quiet, signalling, all-ones NaN
		1, 0x000FFFFFFFFFFFFF, 0x8000000000000001, // subnormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(math.SmallestNonzeroFloat64),
	}
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return math.Float64frombits(special[rng.Intn(len(special))])
		case 1:
			return math.Float64frombits(0x7FF0000000000000 | rng.Uint64()) // NaN (or Inf), random payload and sign
		}
		return math.Float64frombits(rng.Uint64())
	}
	integer := func() int {
		switch rng.Intn(4) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return int(rng.Uint64())
	}
	cursor := func() Cursor {
		return Cursor{RNG: [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
			SqCount: integer(), SqMean: float(), SqM2: float()}
	}
	// length is 0 for a nil section, 1 for an empty non-nil one, else n-1 entries.
	floats := func() []float64 {
		n := rng.Intn(40)
		if n == 0 {
			return nil
		}
		s := make([]float64, n-1)
		for i := range s {
			s[i] = float()
		}
		return s
	}
	words := func() []uint64 {
		n := rng.Intn(40)
		if n == 0 {
			return nil
		}
		s := make([]uint64, n-1)
		for i := range s {
			s[i] = rng.Uint64()
		}
		return s
	}
	m := &Message{
		Type:     MsgHello + MsgType(rng.Intn(int(MsgPartial))),
		ClientID: integer(), Round: integer(), LocalSteps: integer(), BatchSize: integer(), Rounds: integer(),
		LR: float(), GradSqNorm: float(), Sat: rng.Intn(2) == 1,
		Model: floats(), Scales: floats(), GradSqs: floats(), Lo: words(), Hi: words(),
	}
	if rng.Intn(2) == 1 {
		c := cursor()
		m.Cursor = &c
	}
	if n := rng.Intn(12); n > 0 {
		m.Clients = make([]int, n-1)
		for i := range m.Clients {
			m.Clients[i] = integer()
		}
	}
	if n := rng.Intn(12); n > 0 {
		m.Cursors = make([]Cursor, n-1)
		for i := range m.Cursors {
			m.Cursors[i] = cursor()
		}
	}
	return m
}

// TestRandomMessagesRoundTrip is the layout's round-trip property: seeded
// random messages, sent back to back through one codec and received through
// another — so every receive decodes into storage the previous, differently
// shaped message left behind — arrive bit for bit, and each frame is exactly
// as long as the layout's arithmetic says.
func TestRandomMessagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msgs := make([]*Message, 2000)
	size := 0
	for i := range msgs {
		msgs[i] = randomMessage(rng)
		size += frameHeaderSize + encodedSize(msgs[i])
	}
	wire := encodeFramed(t, msgs...)
	if len(wire) != size {
		t.Fatalf("%d messages took %d wire bytes, encodedSize says %d", len(msgs), len(wire), size)
	}
	seen := 0
	decodeFramed(t, wire, func(i int, m *Message) {
		requireSameBits(t, m, msgs[i])
		seen++
	})
	if seen != len(msgs) {
		t.Fatalf("decoded %d messages, sent %d", seen, len(msgs))
	}

	// Nil and empty sections are one encoding.
	empty := &Message{Type: MsgPartial, Model: []float64{}, Scales: []float64{}, GradSqs: []float64{},
		Clients: []int{}, Cursors: []Cursor{}, Lo: []uint64{}, Hi: []uint64{}}
	if a, b := encodeFramed(t, empty), encodeFramed(t, &Message{Type: MsgPartial}); string(a) != string(b) {
		t.Fatalf("empty sections encode to %x, nil sections to %x", a, b)
	}
}

// TestWireBytesPerParam computes, from the encoder, the return-traffic
// figures engine.go's "why two dispatch paths remain" paragraph quotes: a
// flat update costs 8 bytes a parameter, the K=1 partial that would replace
// it 16.
func TestWireBytesPerParam(t *testing.T) {
	const p = 1690 // the session-durable workload's model
	frame := func(m *Message) int { return len(encodeFramed(t, m)) }
	update := func(p int) int {
		return frame(&Message{Type: MsgUpdate, Model: make([]float64, p), Cursor: &Cursor{}})
	}
	partial := func(p int) int {
		return frame(&Message{Type: MsgPartial, Clients: []int{0}, GradSqs: []float64{0},
			Cursors: []Cursor{{}}, Lo: make([]uint64, p), Hi: make([]uint64, p)})
	}
	start := frame(&Message{Type: MsgRoundStart, Model: make([]float64, p)})
	if got := update(p) - update(0); got != 8*p {
		t.Errorf("update grows %d bytes over %d parameters, want 8 each", got, p)
	}
	if got := partial(p) - partial(0); got != 16*p {
		t.Errorf("K=1 partial grows %d bytes over %d parameters, want 16 each", got, p)
	}
	if start != 13611 || update(p) != 13667 || partial(p) != 27203 {
		t.Errorf("at p=%d: round start %d B, update %d B, K=1 partial %d B; engine.go quotes 13611, 13667, 27203",
			p, start, update(p), partial(p))
	}
}

// pairShapes are the two steady-state exchanges of a cluster round, at the
// benchmark's sizes: the flat pair at the session-durable model, the group
// pair at the fleet model with a typical batch of tasked members.
func pairShapes() map[string][2]*Message {
	cursor := Cursor{RNG: [4]uint64{1 << 60, 2 << 60, 3 << 60, 4 << 60}, SqCount: 9, SqMean: 0.25, SqM2: 0.5}
	vec := func(p int) []float64 {
		v := make([]float64, p)
		for j := range v {
			v[j] = 1e-3 * float64(j%97)
		}
		return v
	}
	const members = 777
	clients := make([]int, members)
	cursors := make([]Cursor, members)
	for i := range clients {
		clients[i], cursors[i] = 1000+i, cursor
	}
	limbs := make([]uint64, 610)
	for j := range limbs {
		limbs[j] = uint64(j) << 40
	}
	return map[string][2]*Message{
		"flat-p1690": {
			{Type: MsgRoundStart, Round: 1, Model: vec(1690), LR: 0.1},
			{Type: MsgUpdate, ClientID: 1, Round: 1, Model: vec(1690), GradSqNorm: 0.25, Cursor: &cursor},
		},
		"group-p610-k777": {
			{Type: MsgBatchStart, ClientID: 1, Round: 1, Model: vec(610), LR: 0.1,
				Clients: clients, Scales: vec(members), Cursors: cursors},
			{Type: MsgPartial, ClientID: 1, Round: 1, Clients: clients, GradSqs: vec(members),
				Cursors: cursors, Lo: limbs, Hi: limbs},
		},
	}
}

// serveReplies answers every message received on conn with reply until the
// connection closes; the returned channel then yields.
func serveReplies(t testing.TB, conn net.Conn, reply *Message) <-chan struct{} {
	t.Helper()
	codec, err := NewCodec(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := codec.Recv(); err != nil {
				return
			}
			if err := codec.Send(reply); err != nil {
				return
			}
		}
	}()
	return done
}

// TestCodecSteadyStateAllocs is the allocation gate: once both ends have
// seen a message shape, a full exchange — Send and Recv on each side — is
// zero allocations, on the coordinator's side and the node's together.
func TestCodecSteadyStateAllocs(t *testing.T) {
	for name, pair := range pairShapes() {
		near, far := net.Pipe()
		done := serveReplies(t, far, pair[1])
		codec, err := NewCodec(near, 0)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := codec.Send(pair[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := codec.Recv(); err != nil {
				t.Fatal(err)
			}
		})
		_ = near.Close()
		<-done
		_ = far.Close()
		if allocs != 0 {
			t.Errorf("%s: %v allocs per exchange, want 0", name, allocs)
		}
	}
}

// TestRecvResultSurvivesConcurrentSend pins the split between the codec's
// two directions under the race detector: a message Recv returned is read
// by one goroutine while another Sends a different, larger message on the
// same codec, and is found untouched afterwards.
func TestRecvResultSurvivesConcurrentSend(t *testing.T) {
	pair := pairShapes()["group-p610-k777"]
	near, far := net.Pipe()
	defer func() { _ = near.Close(); _ = far.Close() }()
	a, err := NewCodec(near, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCodec(far, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send(pair[1]) }()
	held, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the other end drains what b sends
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := a.Recv(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // b sends, including an echo of the held message itself
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := b.Send(pair[0]); err != nil {
				t.Error(err)
				return
			}
			if err := b.Send(held); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // while the held message is being read
		defer wg.Done()
		for i := 0; i < 200; i++ {
			requireSameBits(t, held, pair[1])
		}
	}()
	wg.Wait()
	requireSameBits(t, held, pair[1])
}

// BenchmarkCodecRoundTrip times one exchange of each pair over loopback TCP:
// out, decoded and answered by the far end, decoded here. Bytes are both
// frames of the exchange.
func BenchmarkCodecRoundTrip(b *testing.B) {
	for name, pair := range pairShapes() {
		b.Run(name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = ln.Close() }()
			accepted := make(chan net.Conn, 1)
			go func() {
				conn, _ := ln.Accept()
				accepted <- conn
			}()
			near, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			far := <-accepted
			if far == nil {
				b.Fatal("accept failed")
			}
			done := serveReplies(b, far, pair[1])
			codec, err := NewCodec(near, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(2*frameHeaderSize + encodedSize(pair[0]) + encodedSize(pair[1])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.Send(pair[0]); err != nil {
					b.Fatal(err)
				}
				if _, err := codec.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = near.Close()
			<-done
			_ = far.Close()
		})
	}
}
