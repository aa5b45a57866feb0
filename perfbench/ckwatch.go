package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ckPoll is how often a ckWatch looks at the checkpoint logs.
const ckPoll = time.Millisecond

// ckWatch follows checkpoint logs that another process (a shard
// worker) or the daemon writes, where no span from this program can
// time a checkpoint. A checkpoint is staged in the log's .staging
// directory and committed by renaming it to ck-NNNNNN, so the watcher
// polls for the staging directory and sums how long it exists; after
// each commit it reads the newest sequence number and that
// checkpoint's size.
type ckWatch struct {
	glob       string // matches the checkpoint log directories
	stop, done chan struct{}
	stopOnce   sync.Once

	busy  time.Duration  // summed time staging directories existed
	first map[string]int // log -> newest sequence number when first seen
	last  map[string]int // log -> newest sequence number seen
	size  map[string]int64
}

func watchCheckpoints(glob string) *ckWatch {
	w := &ckWatch{
		glob:  glob,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		first: map[string]int{},
		last:  map[string]int{},
		size:  map[string]int64{},
	}
	go w.loop()
	return w
}

func (w *ckWatch) loop() {
	defer close(w.done)
	staged := map[string]time.Time{} // log -> when its staging directory appeared
	tick := time.NewTicker(ckPoll)
	defer tick.Stop()
	for {
		logs, _ := filepath.Glob(w.glob)
		for _, log := range logs {
			if _, ok := w.first[log]; !ok {
				w.first[log], _ = newestCheckpoint(log)
				w.last[log] = w.first[log]
			}
			_, err := os.Stat(filepath.Join(log, ".staging"))
			began, staging := staged[log]
			switch {
			case err == nil && !staging:
				staged[log] = time.Now()
			case err != nil && staging:
				w.busy += time.Since(began)
				delete(staged, log)
				w.commit(log)
			}
		}
		select {
		case <-w.stop:
			for _, log := range logs {
				w.commit(log)
			}
			return
		case <-tick.C:
		}
	}
}

// commit records the newest checkpoint of log, if the log still holds
// one newer than any seen.
func (w *ckWatch) commit(log string) {
	if seq, size := newestCheckpoint(log); seq > w.last[log] {
		w.last[log], w.size[log] = seq, size
	}
}

// close stops the watcher and waits for it; later calls do nothing.
func (w *ckWatch) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// report sets the store write metrics from what the watcher saw: the
// time checkpoints spent staged, the checkpoints committed while it
// watched, and the newest checkpoint of each log.
func (w *ckWatch) report(b *bench) {
	var count int
	var size int64
	for log, last := range w.last {
		count += last - w.first[log]
		size += w.size[log]
	}
	b.setLayer("store.checkpoint_s", w.busy.Seconds())
	b.setLayer("store.checkpoint_count", float64(count))
	b.setLayer("store.checkpoint_mb", float64(size)/mib)
}
