package world

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

func randWireValue(rng *rand.Rand) entity.Value {
	switch rng.Intn(5) {
	case 0:
		return entity.Int(rng.Int63() - rng.Int63())
	case 1:
		return entity.Float(rng.NormFloat64())
	case 2:
		return entity.Str([]string{"", "hp", "x", "raider_speed"}[rng.Intn(4)])
	case 3:
		return entity.Bool(rng.Intn(2) == 0)
	default:
		return entity.Null()
	}
}

func randEffect(rng *rand.Rand) Effect {
	return Effect{
		Kind:   EffectKind(rng.Intn(5)),
		Src:    entity.ID(rng.Uint64() >> 1),
		Seq:    int32(rng.Int31() - rng.Int31()),
		Target: entity.ID(rng.Uint64() >> 1),
		Col:    []string{"", "x", "y", "met"}[rng.Intn(4)],
		Val:    randWireValue(rng),
		Name:   []string{"", "unit", "raider", "ping"}[rng.Intn(4)],
		Pos:    spatial.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()},
	}
}

func batchesEqual(t *testing.T, a, b *RemoteEffectBatch) {
	t.Helper()
	if len(a.Recs) != len(b.Recs) || len(a.invocs) != len(b.invocs) {
		t.Fatalf("batch shape: got %d/%d recs/invocs, want %d/%d",
			len(b.Recs), len(b.invocs), len(a.Recs), len(a.invocs))
	}
	for i := range a.Recs {
		ra, rb := a.Recs[i], b.Recs[i]
		if ra.Gen != rb.Gen || ra.E.Kind != rb.E.Kind || ra.E.Src != rb.E.Src ||
			ra.E.Seq != rb.E.Seq || ra.E.Target != rb.E.Target || ra.E.Col != rb.E.Col ||
			ra.E.Name != rb.E.Name ||
			math.Float64bits(ra.E.Pos.X) != math.Float64bits(rb.E.Pos.X) ||
			math.Float64bits(ra.E.Pos.Y) != math.Float64bits(rb.E.Pos.Y) {
			t.Fatalf("rec %d mismatch: got %+v want %+v", i, rb, ra)
		}
		if ra.E.Val.Kind() != rb.E.Val.Kind() {
			t.Fatalf("rec %d value kind mismatch", i)
		}
	}
	for i := range a.invocs {
		ia, ib := a.invocs[i], b.invocs[i]
		if ia.key.Src != ib.key.Src || ia.key.Gen != ib.key.Gen || ia.retries != ib.retries ||
			len(ia.reads) != len(ib.reads) {
			t.Fatalf("invoc %d mismatch: got %+v want %+v", i, ib, ia)
		}
		for j := range ia.reads {
			if ia.reads[j] != ib.reads[j] {
				t.Fatalf("invoc %d read %d mismatch", i, j)
			}
		}
	}
}

// TestRemoteBatchRoundTrip drives randomized batches — including empty
// ones, despawn-only batches, and OCC read-set metadata — through
// encode→decode and checks identity.
func TestRemoteBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var e wire.Enc
	in := wire.NewInterner()
	var got RemoteEffectBatch
	for iter := 0; iter < 100; iter++ {
		var b RemoteEffectBatch
		switch iter % 4 {
		case 0: // empty
		case 1: // despawn-only feed
			for i := 0; i < rng.Intn(5)+1; i++ {
				b.Recs = append(b.Recs, RemoteEffect{
					E:   Effect{Kind: EffectDespawn, Src: entity.ID(i + 1), Target: entity.ID(i + 1)},
					Gen: int64(iter),
				})
			}
		default: // mixed with OCC metadata
			for i := 0; i < rng.Intn(8); i++ {
				b.Recs = append(b.Recs, RemoteEffect{E: randEffect(rng), Gen: rng.Int63()})
			}
			for i := 0; i < rng.Intn(3); i++ {
				inv := foreignInvoc{
					key:     ForeignKey{Src: entity.ID(rng.Uint64() >> 1), Gen: rng.Int63()},
					retries: rng.Intn(4),
				}
				for j := 0; j < rng.Intn(4); j++ {
					inv.reads = append(inv.reads, readCell{id: entity.ID(rng.Uint64() >> 1), col: "hp"})
				}
				b.invocs = append(b.invocs, inv)
			}
		}
		e.Reset()
		AppendRemoteBatch(&e, &b)
		d := wire.NewDec(e.Bytes(), in)
		got.Recs = got.Recs[:0]
		got.invocs = got.invocs[:0]
		DecodeRemoteBatch(d, &got)
		if d.Err() != nil {
			t.Fatalf("iter %d: decode: %v", iter, d.Err())
		}
		if d.Remaining() != 0 {
			t.Fatalf("iter %d: %d leftover bytes", iter, d.Remaining())
		}
		batchesEqual(t, &b, &got)
	}
}

// TestVerdictsRoundTrip checks validation-verdict encode→decode
// identity, empty slices included.
func TestVerdictsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var e wire.Enc
	for iter := 0; iter < 50; iter++ {
		vs := make([]ForeignInvalidation, rng.Intn(6))
		for i := range vs {
			vs[i] = ForeignInvalidation{
				Key:     ForeignKey{Shard: rng.Intn(8), Src: entity.ID(rng.Uint64() >> 1), Gen: rng.Int63()},
				Retries: rng.Intn(5),
			}
		}
		e.Reset()
		AppendVerdicts(&e, vs)
		d := wire.NewDec(e.Bytes(), nil)
		got := DecodeVerdicts(d, nil)
		if d.Err() != nil {
			t.Fatalf("decode: %v", d.Err())
		}
		if len(got) != len(vs) {
			t.Fatalf("len: got %d want %d", len(got), len(vs))
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("verdict %d: got %+v want %+v", i, got[i], vs[i])
			}
		}
	}
}

// TestRemoteBatchCorrupt checks decode rejects truncated payloads and
// absurd counts without allocating or panicking.
func TestRemoteBatchCorrupt(t *testing.T) {
	var e wire.Enc
	b := RemoteEffectBatch{
		Recs: []RemoteEffect{{E: Effect{Kind: EffectSet, Src: 5, Target: 5, Col: "x", Val: entity.Float(1)}, Gen: 9}},
		invocs: []foreignInvoc{{
			key: ForeignKey{Src: 5, Gen: 9}, retries: 1,
			reads: []readCell{{id: 7, col: "x"}},
		}},
	}
	AppendRemoteBatch(&e, &b)
	full := e.Bytes()
	var got RemoteEffectBatch
	for i := 0; i < len(full); i++ {
		d := wire.NewDec(full[:i], nil)
		DecodeRemoteBatch(d, &got)
		if d.Err() == nil {
			t.Fatalf("truncated batch at %d decoded without error", i)
		}
	}
	// Absurd record count.
	e.Reset()
	e.Uvarint(1 << 50)
	d := wire.NewDec(e.Bytes(), nil)
	DecodeRemoteBatch(d, &got)
	if d.Err() == nil {
		t.Fatalf("oversized record count accepted")
	}
	// Absurd verdict count.
	d = wire.NewDec(e.Bytes(), nil)
	if DecodeVerdicts(d, nil); d.Err() == nil {
		t.Fatalf("oversized verdict count accepted")
	}
}

// checkReencodes is the decoder fuzz property: a payload either fails
// to decode or re-encodes to exactly the bytes the decode consumed.
func checkReencodes(t *testing.T, data []byte, d *wire.Dec, encode func(e *wire.Enc)) {
	t.Helper()
	if d.Err() != nil {
		return
	}
	var e wire.Enc
	encode(&e)
	if consumed := data[:len(data)-d.Remaining()]; !bytes.Equal(e.Bytes(), consumed) {
		t.Fatalf("decoded payload re-encodes to %x, consumed %x", e.Bytes(), consumed)
	}
}

func FuzzDecodeRemoteBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	var e wire.Enc
	for i := 0; i < 4; i++ {
		var b RemoteEffectBatch
		for j := 0; j < i; j++ {
			b.Recs = append(b.Recs, RemoteEffect{E: randEffect(rng), Gen: rng.Int63()})
			b.invocs = append(b.invocs, foreignInvoc{
				key:     ForeignKey{Src: entity.ID(j + 1), Gen: rng.Int63()},
				retries: j,
				reads:   []readCell{{id: entity.ID(j + 7), col: "hp"}},
			})
		}
		e.Reset()
		AppendRemoteBatch(&e, &b)
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data, wire.NewInterner())
		var b RemoteEffectBatch
		DecodeRemoteBatch(d, &b)
		checkReencodes(t, data, d, func(e *wire.Enc) { AppendRemoteBatch(e, &b) })
	})
}

func FuzzDecodeVerdicts(f *testing.F) {
	var e wire.Enc
	AppendVerdicts(&e, nil)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	AppendVerdicts(&e, []ForeignInvalidation{
		{Key: ForeignKey{Shard: 1, Src: 40, Gen: -3}, Retries: 2},
		{Key: ForeignKey{Shard: 3, Src: 1 << 40, Gen: 9}},
	})
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data, nil)
		vs := DecodeVerdicts(d, nil)
		checkReencodes(t, data, d, func(e *wire.Enc) { AppendVerdicts(e, vs) })
	})
}
