package svm

// SliceEnv is a stand-alone Env over an in-memory stream, for writing and
// debugging handler programs outside a simulation. It counts the work a
// real switch CPU would be charged.
type SliceEnv struct {
	Base   int64
	Stream []byte

	Cycles   int64
	Fetches  int64
	Loads    int64
	Stores   int64
	Deallocs []int64
	Out      []uint32
}

// NewSliceEnv builds an Env over data mapped at base.
func NewSliceEnv(base int64, data []byte) *SliceEnv {
	return &SliceEnv{Base: base, Stream: data}
}

// Compute implements Env.
func (e *SliceEnv) Compute(n int64) { e.Cycles += n }

// Ifetch implements Env.
func (e *SliceEnv) Ifetch(int64) { e.Fetches++ }

// StreamBase implements Env.
func (e *SliceEnv) StreamBase() int64 { return e.Base }

// StreamBytes implements Env.
func (e *SliceEnv) StreamBytes(addr, n int64) []byte {
	off := addr - e.Base
	if off < 0 || off >= int64(len(e.Stream)) {
		return nil
	}
	end := off + n
	if end > int64(len(e.Stream)) {
		end = int64(len(e.Stream))
	}
	return e.Stream[off:end]
}

// MemLoad implements Env.
func (e *SliceEnv) MemLoad(int64) { e.Loads++ }

// MemStore implements Env.
func (e *SliceEnv) MemStore(int64) { e.Stores++ }

// Dealloc implements Env.
func (e *SliceEnv) Dealloc(end int64) { e.Deallocs = append(e.Deallocs, end) }

// Emit implements Env.
func (e *SliceEnv) Emit(v uint32) { e.Out = append(e.Out, v) }
