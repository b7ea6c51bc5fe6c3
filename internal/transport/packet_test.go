package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// TestSimKeepsDefaultPackets pins what the simulator sees when its MTU is
// unset: Sim cuts each frame exactly as wire.Fragment does at 16 KiB, so
// netsim draws its fates for the same number, sizes and order of packets
// the runtime has always sent.
func TestSimKeepsDefaultPackets(t *testing.T) {
	n := netsim.New(vtime.NewReal(), netsim.Config{})
	s := NewSim(n)
	recv := newCollector()
	if err := s.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	var wantSent, wantBytes int64
	for i, size := range []int{100, 16 << 10, 40_000} {
		frame := bytes.Repeat([]byte{byte(i + 1)}, size)
		if err := s.Send("a", "b", frame); err != nil {
			t.Fatal(err)
		}
		pkts, err := wire.Fragment(uint64(i+1), frame, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		wantSent += int64(len(pkts))
		for _, p := range pkts {
			wantBytes += int64(len(p))
		}
	}
	recv.wait(t, 3, 5*time.Second)
	st := n.Stats()
	if st.Sent != wantSent || st.BytesSent != wantBytes {
		t.Fatalf("netsim saw %d packets / %d bytes, want %d / %d as wire.Fragment at 16 KiB",
			st.Sent, st.BytesSent, wantSent, wantBytes)
	}
	for i, got := range recv.got {
		if len(got) == 0 || got[0] != byte(i+1) {
			t.Fatalf("frame %d arrived out of shape", i)
		}
	}
}

// TestSimSplitsAtLinkMTU checks that a link MTU set on the simulator is
// the packet bound, and that a frame many packets long arrives whole.
func TestSimSplitsAtLinkMTU(t *testing.T) {
	n := netsim.New(vtime.NewReal(), netsim.Config{MTU: 256})
	s := NewSim(n)
	recv := newCollector()
	if err := s.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte("0123456789"), 500)
	if err := s.Send("a", "b", frame); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 5*time.Second)
	if !bytes.Equal(recv.got[0], frame) {
		t.Fatal("reassembled frame differs from the one sent")
	}
	if sent := n.Stats().Sent; sent < int64(len(frame)/256) {
		t.Fatalf("a %d-byte frame crossed a 256-byte MTU in %d packets", len(frame), sent)
	}
}

// TestSimPartialFramesEvicted: a frame that loses packets must not pin
// reassembly state forever. Partials survive until reassemblyAge has
// passed, and the first arrival after that sweeps them.
func TestSimPartialFramesEvicted(t *testing.T) {
	clock := vtime.NewSim(time.Unix(1000, 0))
	s := NewSim(netsim.New(clock, netsim.Config{Seed: 2, LossRate: 0.5, MTU: 256}))
	if err := s.Attach("cli", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach("srv", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	// Big frames: ~7 packets each, so at 50% loss nearly every frame
	// loses at least one packet and strands a partial assembly.
	big := make([]byte, 1500)
	for i := 0; i < 50; i++ {
		if err := s.Send("cli", "srv", big); err != nil {
			t.Fatal(err)
		}
	}
	s.Quiesce()
	stranded := s.pk.reasm.Pending()
	if stranded == 0 {
		t.Fatal("no partial frames stranded; fault injection inert")
	}
	// Keep traffic flowing so the lazy sweep gets its chance.
	trickle := func() {
		for i := 0; i < 5; i++ {
			if err := s.Send("cli", "srv", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		s.Quiesce()
	}
	clock.Advance(reassemblyAge - time.Second)
	trickle()
	if n := s.pk.reasm.Pending(); n != stranded {
		t.Fatalf("%d of %d partial frames evicted before the reassembly age", stranded-n, stranded)
	}
	clock.Advance(2 * time.Second)
	trickle()
	if n := s.pk.reasm.Pending(); n > 5 {
		t.Fatalf("%d partial messages still pinned after sweep age", n)
	}
}

// TestWrapperDuplicateDroppedByReceiver: a duplicate the Wrapper injects
// rides under its original's packet id, so a packetizing transport's
// receiver drops it, exactly like a duplicate from the network itself.
func TestWrapperDuplicateDroppedByReceiver(t *testing.T) {
	inner := NewSim(netsim.New(vtime.NewReal(), netsim.Config{}))
	w := Wrap(inner, WrapperConfig{Seed: 1, DupRate: 1})
	recv := newCollector()
	if err := w.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := w.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	const frames = 20
	for i := 0; i < frames; i++ {
		if err := w.Send("a", "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	if got := w.InjectedStats().Duplicated; got != frames {
		t.Fatalf("wrapper duplicated %d of %d frames", got, frames)
	}
	if st := inner.Stats(); st.Sent != 2*frames {
		t.Fatalf("network carried %d packets, want %d (each frame twice)", st.Sent, 2*frames)
	}
	if got := recv.count(); got != frames {
		t.Fatalf("receiver got %d frames, want %d: duplicates must be dropped", got, frames)
	}
}
