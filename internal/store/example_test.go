package store_test

import (
	"fmt"
	"log"
	"os"

	"v6web/internal/store"
)

// A checkpoint is the main database and its round cursor, committed
// atomically by one Save; a crash mid-save leaves the previous
// checkpoint intact. The campaign runner drives this through
// core.WithCheckpoint, and core.Open resumes from whatever checkpoint
// last committed.
func ExampleCheckpointBackend() {
	dir, err := os.MkdirTemp("", "v6web-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	b := store.NewCheckpointBackend(dir)
	if _, ok, _ := b.LoadMeta(); !ok {
		fmt.Println("no committed checkpoint yet")
	}

	db := store.NewDB()
	db.PutSite(store.SiteRow{Site: 1, Host: "site1.v6web.test", FirstRank: 1, V4AS: 3, V6AS: 7})
	if err := b.Save(db, store.Meta{NextRound: 5, Rounds: 35, ConfigHash: "abc"}); err != nil {
		log.Fatal(err)
	}

	meta, ok, err := b.LoadMeta()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ok, meta.NextRound, meta.Rounds)

	restored, err := b.Load()
	if err != nil {
		log.Fatal(err)
	}
	row, _ := restored.Site(1)
	fmt.Println(row.Host)
	// Output:
	// no committed checkpoint yet
	// true 5 35
	// site1.v6web.test
}
