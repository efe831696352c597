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

// DecodeF64s is the inverse of EncodeF64s.
func DecodeF64s(b []byte) []float64 {
	return AppendF64s(make([]float64, 0, len(b)/8), b)
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

// EncodeF64 serializes a single float64.
func EncodeF64(v float64) []byte { return EncodeF64s([]float64{v}) }

// DecodeF64 deserializes the first float64 of b, in place: the models call
// it on every exchange, so it allocates nothing.  Like DecodeF64s it
// panics when b is not a whole number of values.
func DecodeF64(b []byte) float64 {
	if len(b)%8 != 0 {
		panic("mpi: DecodeF64: length not a multiple of 8")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
