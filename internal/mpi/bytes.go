package mpi

import (
	"encoding/binary"
	"math"
	"slices"
)

// EncodeF64s serializes a float64 slice little-endian (8 bytes each).
func EncodeF64s(x []float64) []byte {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// AppendF64s decodes b (as EncodeF64s lays it out) onto the end of dst and
// returns the extended slice; with capacity for len(b)/8 more values it
// allocates nothing, so a receiver can decode straight into its own vector.
func AppendF64s(dst []float64, b []byte) []float64 {
	if len(b)%8 != 0 {
		panic("mpi: AppendF64s: length not a multiple of 8")
	}
	dst = slices.Grow(dst, len(b)/8)
	for i := 0; i < len(b); i += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
	}
	return dst
}

// f64ChunkBytes is the chunk an F64Chunk carves its pieces from: 64
// values.  Every piece a receiver, a log or an image still holds keeps its
// whole chunk alive, so a larger chunk saves few mallocs and retains more.
const f64ChunkBytes = 512

// F64Chunk encodes one float64 per payload, the models' exchange: each Put
// returns a fresh 8-byte piece carved from a chunk of f64ChunkBytes, so 64
// payloads cost one malloc.  A piece is handed out once and never written
// again, and its capacity is 8, so an append to it copies instead of
// reaching the next piece: the handed-over, read-only rule of Packet.Data
// holds for every piece.  The zero value is ready to use.
type F64Chunk struct{ free []byte }

// Put encodes v into the next piece of the chunk.
func (c *F64Chunk) Put(v float64) []byte {
	if len(c.free) < 8 {
		c.free = make([]byte, f64ChunkBytes)
	}
	b := c.free[:8:8]
	c.free = c.free[8:]
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// DecodeF64 deserializes the first float64 of b, in place: the models call
// it on every exchange, so it allocates nothing.  Like AppendF64s it
// panics when b is not a whole number of values.
func DecodeF64(b []byte) float64 {
	if len(b)%8 != 0 {
		panic("mpi: DecodeF64: length not a multiple of 8")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
