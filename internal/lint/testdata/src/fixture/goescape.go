package fixture

import "sync"

// Positive and negative controls for the goescape rule.

var geMu sync.Mutex

func geSink(v int) { _ = v }

// geRacy writes a captured local on both sides of the spawn with no join
// or latch: the seeded positive control.
func geRacy() int {
	n := 0
	go func() {
		n++
	}()
	n++ // want goescape
	return n
}

// spawnNoJoin launches its argument and returns without joining, so its
// callers are spawn sites.
func spawnNoJoin(fn func()) {
	go fn()
}

// geViaHelper races through the helper instead of a literal go statement.
func geViaHelper() int {
	n := 0
	spawnNoJoin(func() {
		n++
	})
	n++ // want goescape
	return n
}

// geLoopVar only reads the loop variable: quiet, each iteration has its own (go 1.22).
func geLoopVar() {
	for i := 0; i < 3; i++ {
		go func() {
			geSink(i)
		}()
	}
}

// geJoined receives from the done channel between spawn and access: the
// join exemption keeps it quiet.
func geJoined() int {
	n := 0
	done := make(chan struct{})
	go func() {
		n++
		close(done)
	}()
	<-done
	return n
}

// geWaitGroup joins through wg.Wait before reading: quiet.
func geWaitGroup() int {
	var wg sync.WaitGroup
	n := 0
	wg.Add(1)
	go func() {
		n++
		wg.Done()
	}()
	wg.Wait()
	return n
}

// geGuarded holds the same latch around the inner write and the outer
// read: the common-latch exemption keeps it quiet.
func geGuarded() int {
	n := 0
	go func() {
		geMu.Lock()
		n++
		geMu.Unlock()
	}()
	geMu.Lock()
	v := n
	geMu.Unlock()
	return v
}

// runJoined spawns AND joins internally, so it executes its argument
// synchronously overall and is not a spawn site.
func runJoined(fn func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		fn()
		wg.Done()
	}()
	wg.Wait()
}

// geSynchronous uses the joining helper: quiet on both sides.
func geSynchronous() int {
	n := 0
	runJoined(func() {
		n++
	})
	n++
	return n
}

func touchGoEscapeFixture() {
	_ = geRacy()
	_ = geViaHelper()
	geLoopVar()
	_ = geJoined()
	_ = geWaitGroup()
	_ = geGuarded()
	_ = geSynchronous()
}
