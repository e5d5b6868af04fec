package hdl

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// TestLibraryMatchesGo is the handler library's independent oracle: on
// seeded streams, each compiled program emits exactly the words a direct Go
// computation gives. Record and word loops stop at the last whole unit.
func TestLibraryMatchesGo(t *testing.T) {
	selectGo := func(thr uint32) func([]byte) []uint32 {
		return func(s []byte) []uint32 {
			var n uint32
			for i := 0; i+16 <= len(s); i += 16 {
				if uint32(s[i]) < thr {
					n++
				}
			}
			return []uint32{n}
		}
	}
	sumGo := func(s []byte) []uint32 {
		var acc uint32
		for i := 0; i+4 <= len(s); i += 4 {
			acc += binary.LittleEndian.Uint32(s[i:])
		}
		return []uint32{acc}
	}
	minMaxGo := func(s []byte) []uint32 {
		lo, hi := uint32(255), uint32(0)
		for _, b := range s {
			if uint32(b) < lo {
				lo = uint32(b)
			}
			if uint32(b) > hi {
				hi = uint32(b)
			}
		}
		return []uint32{lo, hi}
	}
	type libCase struct {
		name   string
		src    string
		params map[string]uint32
		want   func([]byte) []uint32
	}
	cases := []libCase{
		{"sum", SumHDL, nil, sumGo},
		{"minmax", MinMaxHDL, nil, minMaxGo},
	}
	for _, thr := range []uint32{0, 1, 64, 128, 255, 256} {
		cases = append(cases, libCase{fmt.Sprintf("select/thr=%d", thr), SelectHDL, map[string]uint32{"threshold": thr}, selectGo(thr)})
	}
	for _, tc := range cases {
		c := MustCompile(tc.src)
		for seed := uint64(0); seed < 30; seed++ {
			stream := GenStream(seed)
			got, err := RunSlice(c, stream, DiffBase, tc.params)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if want := tc.want(stream); !reflect.DeepEqual(got.Out, want) {
				t.Fatalf("%s seed %d (%d bytes): emitted %v, want %v", tc.name, seed, len(stream), got.Out, want)
			}
		}
	}
}

// TestHDLHandlerOnRealSwitch closes the loop: the compiled HDL select
// handler runs on a simulated switch, reading disk-streamed bytes through
// the ATB, and its count must match the host oracle.
func TestHDLHandlerOnRealSwitch(t *testing.T) {
	const recSize = 16
	const total = 64 * 1024
	const streamBase = 1 << 20
	data := make([]byte, total)
	want := uint32(0)
	for i := 0; i < total/recSize; i++ {
		data[i*recSize] = byte((i * 131) % 251)
		if data[i*recSize] < 64 {
			want++
		}
	}

	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, cluster.DefaultIOClusterConfig())
	c.Store(0).AddFile(&iodev.File{Name: "t", Size: total, Data: data})
	sw := c.Switch(0)
	comp := MustCompile(SelectHDL)
	sw.Register(21, "hdl-select", comp.Handler(HandlerSpec{
		StreamBase: streamBase, StreamLen: total, MemBase: 1 << 16,
		Params: map[string]uint32{"threshold": 64},
		Flow:   0x7301, Addr: 0x100,
	}))
	c.Start()
	var got uint32
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 21, Addr: 0},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "t", 0, total,
			sw.ID(), streamBase, 0x6500)
		h.WaitRead(p, tok)
		res := h.RecvFlow(p, sw.ID(), 0x7301)
		got = res.Payloads[0].([]uint32)[0]
	})
	eng.Run()
	defer c.Shutdown()
	if got != want {
		t.Fatalf("switch-executed HDL handler counted %d, want %d", got, want)
	}
}

// TestHandlerSpecBadParam: launching with an unknown parameter fails fast.
func TestHandlerSpecBadParam(t *testing.T) {
	c := MustCompile(SelectHDL)
	if _, err := c.InitRegs(DiffBase, 0, map[string]uint32{"nope": 1}, nil); err == nil {
		t.Fatal("expected an error for an unknown parameter")
	}
	if _, err := c.InitRegs(DiffBase, 0, nil, map[string]uint32{"nope": 1}); err == nil {
		t.Fatal("expected an error for an unknown var")
	}
}

// MustCompile compiles a library handler, panicking on error — for the
// constant sources above, which tests validate.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}
