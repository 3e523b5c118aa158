package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeLocker scripts the cross-process lease: deny the first `denials`
// TryLock calls (a live peer holds the lease), then grant, recording
// every event into an optional shared log. denied is closed by the
// first denial, so a test can act once a caller is in the lease wait.
type fakeLocker struct {
	mu       sync.Mutex
	denials  int
	tries    int
	released atomic.Int32
	events   []string
	denied   chan struct{}
}

func (l *fakeLocker) TryLock(key Key) (func(), bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tries++
	if l.tries <= l.denials {
		if l.tries == 1 {
			close(l.denied)
		}
		return nil, false
	}
	l.events = append(l.events, "acquire")
	return func() {
		l.released.Add(1)
		l.mu.Lock()
		l.events = append(l.events, "release")
		l.mu.Unlock()
	}, true
}

// lockingTier is a Tier that also coordinates cross-process leases —
// the shape store.Store has — logging Store calls into the locker's
// event stream so ordering is checkable.
type lockingTier struct {
	*fakeTier
	*fakeLocker
}

func (lt *lockingTier) Store(key Key, val any) {
	lt.fakeLocker.mu.Lock()
	lt.fakeLocker.events = append(lt.fakeLocker.events, "store")
	lt.fakeLocker.mu.Unlock()
	lt.fakeTier.Store(key, val)
}

func newLockingTier(denials int) *lockingTier {
	return &lockingTier{fakeTier: newFakeTier(), fakeLocker: &fakeLocker{denials: denials, denied: make(chan struct{})}}
}

func TestSetTierAutoDetectsLockerAndPeerHit(t *testing.T) {
	// The tier implements Locker, so SetTier alone must wire the
	// cross-process path: with the lease denied (live peer), the blob
	// landing in the tier must be served as a PeerHit without simulating.
	lt := newLockingTier(1 << 30) // never grant
	key := KeyOf("peer-owned")

	s := New(2)
	s.SetTier(lt)
	s.SetPeerPollInterval(time.Millisecond)

	go func() {
		time.Sleep(10 * time.Millisecond)
		lt.fakeTier.Store(key, "peer-result") // the peer finishes: blob lands
	}()
	v, prov, err := s.Do(key, "", true, func() (any, error) {
		t.Error("simulated despite a live peer's lease")
		return nil, nil
	})
	if err != nil || v.(string) != "peer-result" || prov.Outcome != PeerHit {
		t.Fatalf("peer hit: v=%v prov=%+v err=%v", v, prov, err)
	}
	if prov.LeaseWait <= 0 {
		t.Errorf("PeerHit LeaseWait = %v, want > 0", prov.LeaseWait)
	}
	st := s.Stats()
	if st.PeerHits != 1 || st.Misses != 0 || st.LeaseWait <= 0 {
		t.Errorf("stats = %+v, want 1 peer hit, 0 misses, LeaseWait > 0", st)
	}
	// Promoted into the memory cache: a repeat is a plain hit.
	if _, prov, _ := s.Do(key, "", true, func() (any, error) { return nil, nil }); prov.Outcome != Hit {
		t.Errorf("repeat after peer hit: outcome %v, want Hit", prov.Outcome)
	}
}

func TestLockerTakeoverBecomesMissWithLeaseWait(t *testing.T) {
	// The holder dies: TryLock denies a few times (fresh lease), then
	// grants (stale takeover). No blob ever lands, so this process must
	// simulate — an ordinary miss that carries the pre-takeover wait.
	lt := newLockingTier(3)
	s := New(2)
	s.SetTier(lt)
	s.SetPeerPollInterval(time.Millisecond)

	ran := 0
	v, prov, err := s.Do(KeyOf("orphaned"), "", true, func() (any, error) {
		ran++
		return "simulated-here", nil
	})
	if err != nil || v.(string) != "simulated-here" || prov.Outcome != Miss || ran != 1 {
		t.Fatalf("takeover miss: v=%v prov=%+v err=%v ran=%d", v, prov, err, ran)
	}
	if prov.LeaseWait <= 0 {
		t.Errorf("contended miss LeaseWait = %v, want > 0", prov.LeaseWait)
	}
	if st := s.Stats(); st.Misses != 1 || st.LeaseWait <= 0 {
		t.Errorf("stats = %+v, want 1 miss with LeaseWait > 0", st)
	}
	if got := lt.released.Load(); got != 1 {
		t.Errorf("release called %d times, want exactly 1", got)
	}
}

func TestLockerReleaseAfterTierStore(t *testing.T) {
	// The lease must outlive the blob write: a waiter that sees the
	// lease vanish has to find the result. Event order is therefore
	// acquire → store → release.
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)

	if _, _, err := s.Do(KeyOf("ordered"), "", true, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	lt.fakeLocker.mu.Lock()
	events := append([]string(nil), lt.fakeLocker.events...)
	lt.fakeLocker.mu.Unlock()
	want := []string{"acquire", "store", "release"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestLockerReleasedOnSimulationError(t *testing.T) {
	// An errored run stores nothing but must still drop the lease so a
	// waiting peer can take over and retry.
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)

	if _, _, err := s.Do(KeyOf("failing"), "", true, func() (any, error) {
		return nil, context.DeadlineExceeded
	}); err == nil {
		t.Fatal("want simulation error")
	}
	if got := lt.released.Load(); got != 1 {
		t.Errorf("release called %d times, want exactly 1", got)
	}
	if lt.fakeTier.stores != 0 {
		t.Errorf("errored run stored %d blobs, want 0", lt.fakeTier.stores)
	}
}

func TestLockerCancelWhileWaitingOnPeer(t *testing.T) {
	lt := newLockingTier(1 << 30) // never grant, no blob ever lands
	s := New(2)
	s.SetTier(lt)
	s.SetPeerPollInterval(time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	key := KeyOf("abandoned")

	// A joiner on the same key must be resolved by the leader's
	// cancellation, not hang.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, prov, err := s.DoCtx(ctx, key, "", true, func() (any, error) {
			t.Error("simulated while a peer held the lease")
			return nil, nil
		})
		if err == nil || prov.Outcome != Canceled {
			t.Errorf("leader: prov=%+v err=%v, want Canceled", prov, err)
		}
		if prov.LeaseWait <= 0 {
			t.Errorf("canceled lease wait = %v, want > 0", prov.LeaseWait)
		}
	}()
	// Cancel only once the leader is inside the lease wait: its first
	// TryLock has been denied.
	<-lt.denied
	cancel()
	wg.Wait()

	if st := s.Stats(); st.Canceled == 0 {
		t.Errorf("stats = %+v, want Canceled > 0", st)
	}
}

func TestUncacheableRunSkipsLocker(t *testing.T) {
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)
	if _, _, err := s.Do(KeyOf("raw"), "", false, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	lt.fakeLocker.mu.Lock()
	tries := lt.fakeLocker.tries
	lt.fakeLocker.mu.Unlock()
	if tries != 0 {
		t.Errorf("uncacheable run tried the lease %d times, want 0", tries)
	}
}

func TestSetLockerOverridesAndClears(t *testing.T) {
	// A plain tier (no Locker) must leave the lease path disengaged even
	// after a locking tier was attached before it.
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)
	plain := newFakeTier()
	s.SetTier(plain)
	if _, _, err := s.Do(KeyOf("plain"), "", true, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	lt.fakeLocker.mu.Lock()
	tries := lt.fakeLocker.tries
	lt.fakeLocker.mu.Unlock()
	if tries != 0 {
		t.Errorf("lease consulted %d times after a plain tier replaced the locking one", tries)
	}

	// And SetLocker wires coordination separate from the tier.
	s.SetLocker(lt.fakeLocker)
	if _, _, err := s.Do(KeyOf("separate"), "", true, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if lt.released.Load() != 1 {
		t.Error("explicit SetLocker did not engage the lease path")
	}
}
