package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxUDPFrame is the largest frame a UDP transport sends or receives:
// the real IPv4 UDP payload ceiling (65535 - 8 UDP - 20 IP header
// bytes). With the wire codec's MaxBody, worst-case MSG frames always
// fit, and worst-case labeled ACK frames fit for systems up to ~250
// processes; beyond that, oversized ACKs count as permanent channel
// loss (see Send), which violates fairness — keep payloads small in
// very large systems.
const MaxUDPFrame = 65507

// readLoop error backoff bounds: after consecutive read errors that are
// not a deliberate Close, the reader sleeps readBackoffFloor, doubling
// up to readBackoffCeil, and resets on the next successful read. A
// platform that surfaces a persistent socket error (e.g. an ICMP storm,
// or a misconfigured interface) therefore costs a bounded poll rate
// instead of a 100%-CPU spin.
const (
	readBackoffFloor = time.Millisecond
	readBackoffCeil  = 100 * time.Millisecond
)

// UDP is a Transport over real UDP sockets. Each node owns one socket;
// Send writes the frame as one datagram to every remote peer address and
// hands the sender's own copy straight to its inbox. The broadcast
// primitive is self-inclusive, so the peer set must contain the local
// address.
//
// UDP is fair lossy out of the box: datagrams may be dropped, reordered
// or delayed by the network stack, and a datagram retransmitted forever
// eventually gets through on any functioning path. Nothing in this
// repository assumes more. The in-process self-link is such a channel
// too: it loses a copy only when the inbox is full, exactly where the
// reader would lose a datagram.
type UDP struct {
	conn *net.UDPConn
	// readFrom is the socket read the loop polls; an indirection so the
	// error-backoff path is testable without a real broken socket.
	readFrom func(p []byte) (int, error)

	mu sync.Mutex
	// remote is the fan-out set SetPeers swaps in, the socket's own
	// address taken out; guarded by mu.
	remote []*net.UDPAddr
	// self reports that the peer set named the socket's own address, so
	// Send offers the frame to the inbox itself; guarded by mu.
	self bool
	// shut reports that the reader has closed the inbox, after which
	// nothing may be offered to it; guarded by mu.
	shut bool

	inbox     chan []byte
	closed    atomic.Bool
	quit      chan struct{} // closed by Close: wakes a backoff sleep early
	done      chan struct{}
	oversized atomic.Uint64
	overflows atomic.Uint64
}

var (
	_ Transport       = (*UDP)(nil)
	_ OverflowCounter = (*UDP)(nil)
)

// ListenUDP binds a UDP socket on addr (e.g. "127.0.0.1:0") and starts
// its reader. Peers must be set with SetPeers before the first Send.
// depth bounds the inbound frame queue (<=0 means 1024).
func ListenUDP(addr string, depth int) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	u := newUDP(conn, depth)
	go u.readLoop()
	return u, nil
}

// newUDP wraps a bound socket without starting its reader. The reader
// reads with conn.Read: ReadFromUDP would allocate the sender's address
// for every datagram, and the address is of no use to an anonymous
// receiver.
func newUDP(conn *net.UDPConn, depth int) *UDP {
	if depth <= 0 {
		depth = 1024
	}
	return &UDP{
		conn:     conn,
		readFrom: conn.Read,
		inbox:    make(chan []byte, depth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// LocalAddr returns the bound address (with the concrete port when the
// listen address asked for :0).
func (u *UDP) LocalAddr() *net.UDPAddr { return u.conn.LocalAddr().(*net.UDPAddr) }

// SetPeers replaces the broadcast peer set. Include the local address:
// the URB broadcast primitive delivers to the sender too. A peer equal to
// the bound address is not written to: Send hands that copy to the
// inbox in-process. A socket bound to a wildcard address cannot tell
// which peer it is, so every peer, its own included, gets a datagram.
func (u *UDP) SetPeers(peers ...*net.UDPAddr) {
	local := u.LocalAddr()
	wildcard := local.IP.IsUnspecified()
	remote := make([]*net.UDPAddr, 0, len(peers))
	self := false
	for _, p := range peers {
		if !wildcard && p.Port == local.Port && p.IP.Equal(local.IP) && p.Zone == local.Zone {
			self = true
			continue
		}
		remote = append(remote, p)
	}
	u.mu.Lock()
	u.remote, u.self = remote, self
	u.mu.Unlock()
}

// readLoop pumps datagrams into the inbox until the socket closes.
//
//urbvet:wallclock the error backoff timer bounds a real socket's retry spin, nothing algorithmic
func (u *UDP) readLoop() {
	defer close(u.done)
	defer u.shutInbox()
	buf := make([]byte, MaxUDPFrame)
	var backoff time.Duration
	for {
		n, err := u.readFrom(buf)
		if err != nil {
			if u.closed.Load() || errors.Is(err, net.ErrClosed) {
				// Deliberate Close: the endpoint is gone.
				return
			}
			// Transient read error (e.g. ICMP port-unreachable surfaced
			// as a read error on some platforms when a peer dies): treat
			// it as channel loss and keep reading — one crashed peer
			// must not kill the survivors' transports. Consecutive
			// errors back off exponentially (bounded) so a persistent
			// error degrades to a slow poll, not a 100%-CPU spin.
			if backoff == 0 {
				backoff = readBackoffFloor
			} else if backoff < readBackoffCeil {
				backoff *= 2
				if backoff > readBackoffCeil {
					backoff = readBackoffCeil
				}
			}
			timer := time.NewTimer(backoff)
			select {
			case <-u.quit:
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		backoff = 0
		if n == 0 {
			continue
		}
		frame := make([]byte, n)
		copy(frame, buf[:n])
		// A full inbox drops the frame, like any lossy channel — but
		// count it: overflow is the receiver shedding load, and the
		// saturation experiments need to see it.
		if !offer(u.inbox, frame) {
			u.overflows.Add(1)
		}
	}
}

// shutInbox closes the inbox once the reader is done. Taking mu orders
// it after every self copy Send is offering.
func (u *UDP) shutInbox() {
	u.mu.Lock()
	u.shut = true
	close(u.inbox)
	u.mu.Unlock()
}

// Send implements Transport: the frame itself to the sender's own inbox,
// when the peer set names the bound address, and one datagram per remote
// peer. The own copy shares the frame, as the mesh's receivers do; a
// full inbox drops it and counts it in Overflows, like a datagram the
// reader could not offer. Write errors are treated as channel loss.
// Frames over MaxUDPFrame cannot travel as one datagram and are dropped
// for every peer, the sender included (counted in Oversized); the wire
// codec's MaxBody keeps protocol frames below that for any realistic
// label-set size (labels are one per process), so this only fires for
// non-protocol traffic or pathological systems.
func (u *UDP) Send(frame []byte) {
	if u.closed.Load() {
		return
	}
	if len(frame) > MaxUDPFrame {
		u.oversized.Add(1)
		return
	}
	u.mu.Lock()
	remote := u.remote
	if u.self && !u.shut && !offer(u.inbox, frame) {
		u.overflows.Add(1)
	}
	u.mu.Unlock()
	for _, p := range remote {
		_, _ = u.conn.WriteToUDP(frame, p)
	}
}

// Receive implements Transport.
func (u *UDP) Receive() <-chan []byte { return u.inbox }

// FrameBudget implements Transport: the UDP datagram payload ceiling.
func (u *UDP) FrameBudget() int { return MaxUDPFrame }

// Oversized reports how many frames Send refused because they exceeded
// MaxUDPFrame.
func (u *UDP) Oversized() uint64 { return u.oversized.Load() }

// Overflows implements OverflowCounter: frames discarded because the
// inbox was full, datagrams the reader read and own copies Send offered
// alike.
func (u *UDP) Overflows() uint64 { return u.overflows.Load() }

// Close implements Transport: closes the socket and waits for the
// reader to finish (so no goroutine outlives Close).
func (u *UDP) Close() error {
	if !u.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(u.quit) // wake the reader if it is sleeping in error backoff
	err := u.conn.Close()
	<-u.done
	return err
}

// String describes the transport.
func (u *UDP) String() string {
	u.mu.Lock()
	peers := len(u.remote)
	if u.self {
		peers++
	}
	u.mu.Unlock()
	return fmt.Sprintf("udp(%s, %d peers)", u.conn.LocalAddr(), peers)
}

// UDPGroup binds n loopback sockets and wires each one's peer set to the
// whole group (self included, so each member's own copy stays in the
// process): a ready-to-use n-process cluster over real sockets. Closing
// any member detaches it; close all when done.
func UDPGroup(n, depth int) ([]*UDP, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: UDPGroup n must be >= 1")
	}
	group := make([]*UDP, 0, n)
	addrs := make([]*net.UDPAddr, 0, n)
	for i := 0; i < n; i++ {
		u, err := ListenUDP("127.0.0.1:0", depth)
		if err != nil {
			for _, g := range group {
				g.Close()
			}
			return nil, err
		}
		group = append(group, u)
		addrs = append(addrs, u.LocalAddr())
	}
	for _, u := range group {
		u.SetPeers(addrs...)
	}
	return group, nil
}
