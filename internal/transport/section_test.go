package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// sectionEdges are the word patterns a section must carry bit for bit, as
// float64 bits and as limbs. 0x0102…08 has eight distinct bytes, so a word
// moved in the wrong byte order cannot pass for itself.
var sectionEdges = []uint64{
	0x7ff8000000000000, // quiet NaN
	0x7ff8000000000bad, // quiet NaN with a payload
	0xfff8000000000001, // negative quiet NaN with a payload
	0x7ff0000000000001, // signalling NaN
	0xfff4000000000dad, // negative signalling NaN with a payload
	0,                  // +0
	1 << 63,            // -0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	1,                  // smallest subnormal
	0x800fffffffffffff, // largest negative subnormal
	math.MaxUint64,
	0x0102030405060708,
}

// sectionWords returns n words: the edges in turn, then seeded random ones.
func sectionWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		if i < len(sectionEdges) {
			w[i] = sectionEdges[i]
		} else {
			w[i] = rng.Uint64()
		}
	}
	return w
}

// requireSectionMatchesLoop moves words through putSection and getSection as
// a uint64 section and as a float64 section, and fails unless the encoded
// bytes and the decoded bits equal those of the per-element loop. nil words
// stand for a nil section, an empty one for an empty section.
func requireSectionMatchesLoop(t testing.TB, words []uint64) {
	t.Helper()
	var floats []float64
	if words != nil {
		floats = make([]float64, len(words))
		for i, w := range words {
			floats[i] = math.Float64frombits(w)
		}
	}
	requireSectionBits(t, "uint64", words, words, func(x uint64) uint64 { return x })
	requireSectionBits(t, "float64", floats, words, math.Float64bits)
}

func requireSectionBits[T float64 | uint64](t testing.TB, kind string, v []T, words []uint64, bits func(T) uint64) {
	t.Helper()
	const guard = 0xa5
	size := 4 + 8*len(v)
	want := make([]byte, size)
	binary.LittleEndian.PutUint32(want, uint32(len(v)))
	putWordsLoop(want[4:], words)

	// Encode into the middle of a guarded buffer at an odd offset, as a
	// section sits in a frame after the 58-byte header.
	buf := bytes.Repeat([]byte{guard}, size+16)
	rest := putSection(buf[7:7+size], v)
	if len(rest) != 0 {
		t.Fatalf("%s×%d: putSection left %d bytes unwritten", kind, len(v), len(rest))
	}
	if got := buf[7 : 7+size]; !bytes.Equal(got, want) {
		t.Fatalf("%s×%d: encoded\n %x\nwant the loop's\n %x", kind, len(v), got, want)
	}
	for i, c := range append(buf[:7:7], buf[7+size:]...) {
		if c != guard {
			t.Fatalf("%s×%d: putSection wrote guard byte %d", kind, len(v), i)
		}
	}

	// Decode from the loop's bytes, with trailing bytes left in the frame,
	// into no storage and into reused storage longer than the section.
	stale := make([]T, len(v)+3)
	for i := range stale {
		stale[i] = T(i + 1)
	}
	ref := make([]uint64, len(words))
	getWordsLoop(ref, want[4:])
	for _, dst := range [][]T{nil, stale} {
		f := frame{b: append(append([]byte{}, want...), guard, guard)}
		got := getSection(&f, kind, dst)
		if f.err != nil || len(f.b) != 2 {
			t.Fatalf("%s×%d: getSection err %v, %d bytes left, want nil and 2", kind, len(v), f.err, len(f.b))
		}
		if len(got) != len(words) {
			t.Fatalf("%s×%d: decoded %d entries", kind, len(v), len(got))
		}
		for i := range words {
			if bits(got[i]) != words[i] || ref[i] != words[i] {
				t.Fatalf("%s×%d: entry %d decoded as %#x, loop %#x, want %#x",
					kind, len(v), i, bits(got[i]), ref[i], words[i])
			}
		}
	}
}

// TestSectionsMatchPortable holds the sections' one-copy path to the
// per-element loop it replaces on little-endian hosts: identical bytes out,
// identical bits back, for NaN payloads, signed zeros, infinities,
// subnormals, all-ones limbs, nil and empty sections, every length up to 17
// and a 1690-parameter model.
func TestSectionsMatchPortable(t *testing.T) {
	one := uint16(1)
	if little := *(*byte)(unsafe.Pointer(&one)) == 1; hostLE != little {
		t.Fatalf("hostLE = %v on a host whose memory is little-endian = %v", hostLE, little)
	}
	if !hostLE {
		t.Log("big-endian host: sections take the per-element loop, not the copy")
	}
	rng := rand.New(rand.NewSource(43))
	requireSectionMatchesLoop(t, nil)
	for n := 0; n <= 17; n++ {
		requireSectionMatchesLoop(t, sectionWords(rng, n))
	}
	requireSectionMatchesLoop(t, sectionWords(rng, 1690))
	for _, w := range sectionEdges {
		requireSectionMatchesLoop(t, []uint64{w})
	}
}

// FuzzSectionsMatchPortable reads the fuzzed bytes as little-endian words
// and holds both section paths to the loop on them.
func FuzzSectionsMatchPortable(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 2, 7, 8, 13, 17, 1690} {
		b := make([]byte, 8*n)
		putWordsLoop(b, sectionWords(rng, n))
		f.Add(b)
	}
	f.Add([]byte{1, 2, 3}) // shorter than a word: the empty section
	f.Fuzz(func(t *testing.T, b []byte) {
		words := make([]uint64, len(b)/8)
		getWordsLoop(words, b)
		requireSectionMatchesLoop(t, words)
	})
}

// BenchmarkSection times one 1690-word float64 section out and back in, by
// the copy this host takes and by the per-element loop.
func BenchmarkSection(b *testing.B) {
	v := make([]float64, 1690)
	for i := range v {
		v[i] = float64(i) / 7
	}
	buf := make([]byte, 4+8*len(v))
	dst := make([]float64, len(v))
	b.Run("copy", func(b *testing.B) {
		b.SetBytes(int64(2 * 8 * len(v)))
		for i := 0; i < b.N; i++ {
			putSection(buf, v)
			f := frame{b: buf}
			dst = getSection(&f, "Model", dst)
		}
	})
	b.Run("loop", func(b *testing.B) {
		b.SetBytes(int64(2 * 8 * len(v)))
		for i := 0; i < b.N; i++ {
			putWordsLoop(buf[4:], wordBits(v))
			getWordsLoop(wordBits(dst), buf[4:])
		}
	})
}
