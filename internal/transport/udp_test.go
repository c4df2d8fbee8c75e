package transport

// White-box tests for the UDP reader: a socket read allocates nothing,
// a persistent non-Close read error must degrade to a bounded-rate poll
// (backoff), never a busy spin, and Close must wake a sleeping reader
// promptly. And for the sender: its own copy stays in the process, and a
// Send racing Close never offers to the closed inbox.

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonurb/internal/channel"
)

// newLoopUDP builds a UDP whose readLoop polls readFrom instead of a
// real socket (conn stays nil; only readLoop runs). readFrom receives
// the UDP so fakes can consult the closed flag, as a real socket
// implicitly does.
func newLoopUDP(readFrom func(u *UDP, p []byte) (int, error)) *UDP {
	u := &UDP{
		inbox: make(chan []byte, 16),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	u.readFrom = func(p []byte) (int, error) { return readFrom(u, p) }
	go u.readLoop()
	return u
}

// stopLoopUDP performs the reader-relevant half of Close.
func stopLoopUDP(t *testing.T, u *UDP) {
	t.Helper()
	if u.closed.CompareAndSwap(false, true) {
		close(u.quit)
	}
	select {
	case <-u.done:
	case <-time.After(5 * time.Second):
		t.Fatal("readLoop did not exit")
	}
}

// TestUDPReadAllocs: the socket read the reader polls allocates nothing
// per datagram, so the frame the reader copies out is its only
// allocation. (ReadFromUDP allocated the sender's address every time.)
func TestUDPReadAllocs(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	u := newUDP(conn, 1) // reader not started: the test reads
	send, err := net.DialUDP("udp", nil, u.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	const runs = 50
	for range runs + 1 { // AllocsPerRun adds one warm-up call
		if _, err := send.Write([]byte("datagram")); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxUDPFrame)
	var n int
	got := testing.AllocsPerRun(runs, func() {
		if n, err = u.readFrom(buf); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 || string(buf[:n]) != "datagram" {
		t.Fatalf("read %q allocating %v per datagram, want %q and 0", buf[:n], got, "datagram")
	}
}

// TestUDPReadLoopErrorBackoff: a persistent read error must not spin.
// Regression test: the loop used to `continue` straight back into the
// failing read, burning 100% CPU until the process died.
func TestUDPReadLoopErrorBackoff(t *testing.T) {
	var calls atomic.Uint64
	u := newLoopUDP(func(_ *UDP, p []byte) (int, error) {
		calls.Add(1)
		return 0, errors.New("persistent failure")
	})
	defer stopLoopUDP(t, u)

	const window = 300 * time.Millisecond
	time.Sleep(window)
	got := calls.Load()
	// With a 1ms floor doubling to a 100ms ceiling, 300ms admits well
	// under 20 reads; a busy spin would log millions. The bound is loose
	// (scheduler noise) but catastrophically far from spin territory.
	if got > 64 {
		t.Fatalf("readLoop made %d reads in %v under a persistent error: busy spin (want bounded backoff)", got, window)
	}
	if got == 0 {
		t.Fatal("readLoop never polled the socket")
	}
}

// TestUDPReadLoopBackoffRecovers: the backoff resets after a successful
// read — errors slow the reader down only while they persist.
func TestUDPReadLoopBackoffRecovers(t *testing.T) {
	var calls atomic.Uint64
	frame := []byte{1, 2, 3}
	u := newLoopUDP(func(u *UDP, p []byte) (int, error) {
		if u.closed.Load() {
			return 0, net.ErrClosed // a real socket fails after Close
		}
		n := calls.Add(1)
		if n <= 4 { // a short error burst, then a healthy socket
			return 0, errors.New("transient failure")
		}
		copy(p, frame)
		return len(frame), nil
	})
	defer stopLoopUDP(t, u)

	select {
	case got := <-u.inbox:
		if len(got) != len(frame) {
			t.Fatalf("frame mangled after recovery: %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never recovered from the error burst")
	}
}

// TestUDPReadLoopCloseWakesBackoff: Close must not wait out a pending
// backoff sleep — the quit channel wakes the reader immediately.
func TestUDPReadLoopCloseWakesBackoff(t *testing.T) {
	entered := make(chan struct{}, 1024)
	u := newLoopUDP(func(u *UDP, p []byte) (int, error) {
		if u.closed.Load() {
			return 0, net.ErrClosed
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		return 0, errors.New("always failing")
	})
	<-entered // the loop is running and about to sleep
	start := time.Now()
	stopLoopUDP(t, u)
	if waited := time.Since(start); waited > 2*readBackoffCeil {
		t.Fatalf("close waited %v on a backing-off reader, want prompt wake-up", waited)
	}
}

// TestUDPReadLoopClosedError: a read error after Close (or net.ErrClosed
// at any time) terminates the loop and closes the channels.
func TestUDPReadLoopClosedError(t *testing.T) {
	u := newLoopUDP(func(_ *UDP, p []byte) (int, error) {
		return 0, net.ErrClosed
	})
	select {
	case <-u.done:
	case <-time.After(5 * time.Second):
		t.Fatal("readLoop did not exit on net.ErrClosed")
	}
	if _, ok := <-u.inbox; ok {
		t.Fatal("inbox must be closed after the reader exits")
	}
}

// recvWithin waits up to five seconds for a frame on u.
func recvWithin(t *testing.T, u *UDP) []byte {
	t.Helper()
	select {
	case got := <-u.Receive():
		return got
	case <-time.After(5 * time.Second):
		t.Fatalf("%v received nothing", u)
		return nil
	}
}

// TestUDPSelfCopyInProcess: the sender's own copy never crosses the
// kernel — it arrives as the very slice Send was given — while every
// remote peer reads its own datagram. A peer set without the own
// address delivers nothing to the sender, and a wildcard-bound socket,
// which cannot recognise itself among its peers, gets its own copy back
// through the kernel.
func TestUDPSelfCopyInProcess(t *testing.T) {
	group, err := UDPGroup(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, u := range group {
			u.Close()
		}
	}()
	frame := []byte("self-inclusive")
	group[0].Send(frame)
	select {
	case got := <-group[0].Receive():
		if &got[0] != &frame[0] || len(got) != len(frame) {
			t.Fatalf("own copy %q is not the sent frame", got)
		}
	default:
		t.Fatal("own copy was not in the inbox when Send returned")
	}
	seen := map[*byte]bool{&frame[0]: true}
	for _, u := range group[1:] {
		got := recvWithin(t, u)
		if string(got) != string(frame) || seen[&got[0]] {
			t.Fatalf("%v got %q, want a separate copy of %q", u, got, frame)
		}
		seen[&got[0]] = true
	}

	// The own address left out: only the peer hears the frame.
	group[0].SetPeers(group[1].LocalAddr())
	group[0].Send(frame)
	recvWithin(t, group[1])
	time.Sleep(10 * time.Millisecond) // a stray datagram would have landed by now
	select {
	case got := <-group[0].Receive():
		t.Fatalf("sender outside its own peer set received %q", got)
	default:
	}

	// Bound to 0.0.0.0, named by its loopback address: the kernel path.
	wild, err := ListenUDP("0.0.0.0:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wild.Close()
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: wild.LocalAddr().Port}
	wild.SetPeers(loop)
	wild.Send(frame)
	if got := recvWithin(t, wild); string(got) != string(frame) || &got[0] == &frame[0] {
		t.Fatalf("wildcard socket got %q, want a kernel copy of %q", got, frame)
	}
}

// TestUDPSendCloseRace: Sends that offer the own copy while Close runs
// never panic on the closed inbox, the receive channel closes, and once
// Close has returned nothing more is offered — not even a copy shed on
// the full inbox.
func TestUDPSendCloseRace(t *testing.T) {
	frame := []byte("race")
	for round := 0; round < 200; round++ {
		u, err := ListenUDP("127.0.0.1:0", 4)
		if err != nil {
			t.Fatal(err)
		}
		u.SetPeers(u.LocalAddr())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						u.Send(frame)
						runtime.Gosched() // leave the closer and the reader a CPU
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
		if err := u.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		atClose := u.Overflows()
		time.Sleep(time.Millisecond) // the senders keep going meanwhile
		close(stop)
		wg.Wait()
		if got := u.Overflows(); got != atClose {
			t.Fatalf("round %d: %d own copies offered after Close returned", round, got-atClose)
		}
		for range u.Receive() { // must be closed, with at most the depth buffered
		}
	}
}

// TestMeshQuietForSemantics: QuietFor is false until the first send and
// matches Node.QuietFor's "false until the first send" contract. A
// never-sending mesh must not report quiescence — it would corrupt
// quiescence experiments that poll QuietFor for convergence.
func TestMeshQuietForSemantics(t *testing.T) {
	m := NewMesh(MeshConfig{N: 2, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond})
	defer m.Close()

	if m.QuietFor(0) {
		t.Fatal("mesh with no sends reported QuietFor(0)=true")
	}
	time.Sleep(5 * time.Millisecond)
	if m.QuietFor(time.Millisecond) {
		t.Fatal("idle-but-unused mesh reported quiescence")
	}

	m.Endpoint(0).Send([]byte{1, 2, 3})
	if m.QuietFor(time.Hour) {
		t.Fatal("QuietFor(1h) true immediately after a send")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !m.QuietFor(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("QuietFor never became true after sends stopped")
		}
		time.Sleep(time.Millisecond)
	}
}
