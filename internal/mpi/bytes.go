package mpi

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// EncodeF64s serializes a float64 slice little-endian (8 bytes each).
func EncodeF64s(x []float64) []byte {
	b := make([]byte, 8*len(x))
	putF64s(b, x)
	return b
}

// putF64s encodes x into b, which holds 8*len(x) bytes, as EncodeF64s does.
func putF64s(b []byte, x []float64) {
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
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

// The state codec: how a Program, a protocol's device state and a partner
// snapshot become bytes.  AppendState walks a value's exported fields in
// declaration order (unexported ones are soft state and stay out) and
// writes every integer kind as 8 bytes little-endian, a float as its
// float64 bits and a bool as one byte.  A slice, string or map is an
// 8-byte length, then its elements (a slice of bytes one byte each; a
// map's in ascending key order, keys being integers).  A pointer is a
// presence byte, then its target.  No type descriptor is written, so an
// encoding is a function of the value alone, and its length is what an
// image charges for the state.

var (
	le       = binary.LittleEndian
	f64sType = reflect.TypeOf([]float64(nil))
)

// AppendState appends the encoding of v to dst and returns the extended
// slice.  A pointer v is followed, so AppendState(dst, &x) equals
// AppendState(dst, x).  It panics on a kind the codec has no layout for
// (array, complex, chan, func, interface), which only a declaration brings.
func AppendState(dst []byte, v any) []byte {
	return appendState(dst, reflect.Indirect(reflect.ValueOf(v)))
}

func appendState(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return le.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return le.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return le.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(le.AppendUint64(b, uint64(v.Len())), v.String()...)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendState(append(b, 1), v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			// A field reached through an unexported name cannot be
			// interfaced: the exported-field test, without the allocation
			// reflect.Type.Field makes.
			if f := v.Field(i); f.CanInterface() {
				b = appendState(b, f)
			}
		}
		return b
	case reflect.Slice:
		b = le.AppendUint64(b, uint64(v.Len()))
		switch {
		case v.Type().Elem().Kind() == reflect.Uint8:
			return append(b, v.Bytes()...)
		case v.Type() == f64sType:
			b = slices.Grow(b, 8*v.Len())
			for _, x := range f64s(v) {
				b = le.AppendUint64(b, math.Float64bits(x))
			}
			return b
		}
		for i := 0; i < v.Len(); i++ {
			b = appendState(b, v.Index(i))
		}
		return b
	case reflect.Map:
		b = le.AppendUint64(b, uint64(v.Len()))
		if m, ok := v.Interface().(map[int]uint64); ok {
			return appendSeqMap(b, m)
		}
		return appendMap(b, v)
	}
	panic(fmt.Sprintf("mpi: AppendState: no layout for %s", v.Type()))
}

// appendSeqMap writes the entries of a map[int]uint64, the per-peer
// sequence numbers of a protocol's state, in ascending key order: up to 64
// keys sort in place on the stack, so with room in b it allocates nothing.
func appendSeqMap(b []byte, m map[int]uint64) []byte {
	var on [64]int
	keys := on[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = le.AppendUint64(le.AppendUint64(b, uint64(k)), m[k])
	}
	return b
}

// appendMap writes the entries of any other map with integer keys in
// ascending key order.  One pass copies each entry into the same two
// Values (SetIterKey, SetIterValue) and encodes its value into a scratch
// buffer, so no entry is boxed; the entries then sort by key and their
// encodings are copied out.
func appendMap(b []byte, v reflect.Value) []byte {
	type entry struct {
		key    int64
		lo, hi int // the value's encoding in vals
	}
	ents := make([]entry, 0, v.Len())
	var vals []byte
	k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
	for it := v.MapRange(); it.Next(); {
		k.SetIterKey(it)
		e.SetIterValue(it)
		lo := len(vals)
		vals = appendState(vals, e)
		ents = append(ents, entry{k.Int(), lo, len(vals)})
	}
	slices.SortFunc(ents, func(x, y entry) int { return cmp.Compare(x.key, y.key) })
	for _, en := range ents {
		b = append(le.AppendUint64(b, uint64(en.key)), vals[en.lo:en.hi]...)
	}
	return b
}

// f64s returns the []float64 v holds, through its address when it has one
// (a field of a struct AppendState was given a pointer to): interfacing
// the slice itself would box its header, a pointer fits the interface.
func f64s(v reflect.Value) []float64 {
	if v.CanAddr() {
		return *v.Addr().Interface().(*[]float64)
	}
	return v.Interface().([]float64)
}

// StateSize returns the length of v's encoding, len(AppendState(nil, v)),
// without writing it: a caller sizes its buffer once and appends into it.
func StateSize(v any) int {
	return stateSize(reflect.Indirect(reflect.ValueOf(v)))
}

// stateSize walks appendState's path and adds up what each case writes.
func stateSize(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return 8
	case reflect.String:
		return 8 + v.Len()
	case reflect.Pointer:
		if v.IsNil() {
			return 1
		}
		return 1 + stateSize(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInterface() {
				n += stateSize(f)
			}
		}
		return n
	case reflect.Slice:
		switch {
		case v.Type().Elem().Kind() == reflect.Uint8:
			return 8 + v.Len()
		case v.Type() == f64sType:
			return 8 + 8*v.Len()
		}
		n := 8
		for i := 0; i < v.Len(); i++ {
			n += stateSize(v.Index(i))
		}
		return n
	case reflect.Map:
		if m, ok := v.Interface().(map[int]uint64); ok {
			return 8 + 16*len(m)
		}
		// Integer keys are 8 bytes each; every value is copied into one
		// Value, so no entry is boxed.
		n := 8 + 8*v.Len()
		e := reflect.New(v.Type().Elem()).Elem()
		for it := v.MapRange(); it.Next(); {
			e.SetIterValue(it)
			n += stateSize(e)
		}
		return n
	}
	panic(fmt.Sprintf("mpi: StateSize: no layout for %s", v.Type()))
}

// LoadState decodes b, laid out by AppendState, into the value v points
// to, overwriting its exported fields and leaving the unexported ones as
// they are.  Malformed bytes (short, overlong, or a length, bool or
// presence byte no encoding holds) are an error, never a panic, and no
// length makes it allocate more than a small multiple of len(b).
func LoadState(b []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("mpi: LoadState into %T: want a non-nil pointer", v)
	}
	d := stateDecoder{b: b}
	if d.value(rv.Elem()); len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("mpi: LoadState into %T: %w", v, d.err)
	}
	return nil
}

// stateDecoder reads an encoding; after its first failure (err) every
// read returns zero values and the decode unwinds.
type stateDecoder struct {
	b   []byte
	err error
}

func (d *stateDecoder) fail(format string, a ...any) { d.err = cmp.Or(d.err, fmt.Errorf(format, a...)) }

// take consumes n bytes, or fails the decode and returns nil.
func (d *stateDecoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail("state ends %d bytes early", n-len(d.b))
	}
	if d.err != nil {
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *stateDecoder) word() uint64 {
	if p := d.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

// length reads a length of elements that encode to at least elem bytes
// each, refusing one the bytes left cannot hold: whatever a length
// allocates is bounded by len(b).
func (d *stateDecoder) length(elem int) int {
	if n := d.word(); n > uint64(len(d.b)/max(elem, 1)) {
		d.fail("length %d overruns the %d bytes left", n, len(d.b))
	} else if d.err == nil {
		return int(n)
	}
	return 0
}

func (d *stateDecoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		p := d.take(1)
		if p != nil && p[0] > 1 {
			d.fail("bool byte %d", p[0])
		}
		v.SetBool(p != nil && p[0] == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := int64(d.word())
		if v.OverflowInt(x) {
			d.fail("%d overflows %s", x, v.Type())
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x := d.word()
		if v.OverflowUint(x) {
			d.fail("%d overflows %s", x, v.Type())
		}
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Float64frombits(d.word()))
	case reflect.String:
		v.SetString(string(d.take(d.length(1))))
	case reflect.Pointer:
		switch p := d.take(1); {
		case p == nil || p[0] == 0:
			v.SetZero()
		case p[0] == 1:
			v.Set(reflect.New(v.Type().Elem()))
			d.value(v.Elem())
		default:
			d.fail("presence byte %d", p[0])
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				d.value(f)
			}
		}
	case reflect.Slice:
		n := d.length(minStateSize(v.Type().Elem()))
		switch {
		case n == 0:
			v.SetZero()
		case v.Type() == f64sType:
			v.Set(reflect.ValueOf(AppendF64s(make([]float64, 0, n), d.take(8*n))))
		case v.Type().Elem().Kind() == reflect.Uint8:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			copy(v.Bytes(), d.take(n))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n && d.err == nil; i++ {
				d.value(v.Index(i))
			}
		}
	case reflect.Map:
		kt, et := v.Type().Key(), v.Type().Elem()
		v.SetZero()
		if n := d.length(minStateSize(kt) + minStateSize(et)); n > 0 {
			v.Set(reflect.MakeMapWithSize(v.Type(), n))
			for i := 0; i < n && d.err == nil; i++ {
				k, e := reflect.New(kt).Elem(), reflect.New(et).Elem()
				d.value(k)
				d.value(e)
				v.SetMapIndex(k, e)
			}
		}
	default:
		d.fail("no layout for %s", v.Type())
	}
}

// minStateSize is the fewest bytes AppendState writes for a value of type t.
func minStateSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Uint8, reflect.Pointer:
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				n += minStateSize(f.Type)
			}
		}
		return n
	}
	return 8
}
