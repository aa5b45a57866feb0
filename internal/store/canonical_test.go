package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// canonRow is one write of a random database: a site row, a DNS row, a
// sample or a path snapshot. Rows of one stream (a site's rows, a
// vantage's DNS history of a site, a series, a path key) must land in
// order; rows of different streams may interleave.
type canonRow struct {
	v      Vantage
	site   *SiteRow
	dns    *DNSRow
	sample *struct {
		site alexa.SiteID
		fam  topo.Family
		s    Sample
	}
	path *struct {
		fam        topo.Family
		dst, round int
		path       []int
	}
}

const canonExtBase = alexa.SiteID(1 << 12)

// canonStreams draws a random database as streams of rows: dense main
// and extended ids, overflow ids on both sides of each range, host
// exceptions, both families, three vantages, DNS histories with gaps
// and spills, sample dates that do not follow their rounds, and path
// keys whose snapshots change and repeat.
func canonStreams(rng *rand.Rand) [][]canonRow {
	var ids []alexa.SiteID
	for _, id := range rng.Perm(64)[:24] {
		ids = append(ids, alexa.SiteID(id))
	}
	for _, id := range rng.Perm(32)[:10] {
		ids = append(ids, canonExtBase+alexa.SiteID(id))
	}
	ids = append(ids, 100, 900, canonExtBase+500, 1<<30)
	vantages := []Vantage{"lu", "penn", "tokyo"}
	start := time.Date(2011, 2, 3, 0, 0, 0, 0, time.UTC)
	var streams [][]canonRow
	for _, id := range ids {
		var rows []canonRow
		for k := 0; k < 1+rng.Intn(2); k++ {
			host := alexa.HostName(id)
			if rng.Intn(4) == 0 {
				host = fmt.Sprintf("h%d-%d.example", id, k)
			}
			rows = append(rows, canonRow{site: &SiteRow{Site: id, Host: host, FirstRank: rng.Intn(1000), V4AS: rng.Intn(9) - 1, V6AS: rng.Intn(9) - 1}})
		}
		streams = append(streams, rows)
		for _, v := range vantages {
			if rng.Intn(4) == 0 {
				continue
			}
			rows = nil
			for r := rng.Intn(3); r < 14; r += 1 + rng.Intn(2)*rng.Intn(3) {
				st := rng.Intn(8)
				rows = append(rows, canonRow{v: v, dns: &DNSRow{Site: id, Round: r, HasA: st&1 != 0, HasAAAA: st&2 != 0, Identical: st&4 != 0}})
			}
			streams = append(streams, rows)
			for _, fam := range famBoth {
				if rng.Intn(2) == 0 {
					continue
				}
				rows = nil
				for r := rng.Intn(4); r < 14; r += 1 + rng.Intn(3) {
					row := canonRow{v: v, sample: &struct {
						site alexa.SiteID
						fam  topo.Family
						s    Sample
					}{id, fam, Sample{Round: r, Date: start.AddDate(0, 0, 7*(r+rng.Intn(3))), PageBytes: rng.Intn(5000),
						Downloads: 1 + rng.Intn(6), MeanSpeed: rng.Float64() * 100, CIOK: rng.Intn(4) > 0}}}
					rows = append(rows, row)
				}
				streams = append(streams, rows)
			}
		}
	}
	for _, v := range vantages {
		for dst := 0; dst < 4; dst++ {
			var rows []canonRow
			for r := rng.Intn(3); r < 14; r += 1 + rng.Intn(4) {
				rows = append(rows, canonRow{v: v, path: &struct {
					fam        topo.Family
					dst, round int
					path       []int
				}{famBoth[dst%2], dst, r, []int{1, 2 + rng.Intn(2), dst}}})
			}
			streams = append(streams, rows)
		}
	}
	return streams
}

// canonBuild writes the streams into a fresh database in one random
// interleaving that keeps each stream's order, sending each DNS row,
// sample and site row either straight to the database or through a
// Batch that is flushed before any direct write and at random points.
func canonBuild(streams [][]canonRow, rng *rand.Rand) *DB {
	db := NewDB()
	db.Reserve(64, canonExtBase, 32)
	pos := make([]int, len(streams))
	var live []int
	for i := range streams {
		live = append(live, i)
	}
	var b Batch
	var bv Vantage
	flush := func() {
		db.Flush(bv, &b)
		bv = ""
	}
	for len(live) > 0 {
		k := rng.Intn(len(live))
		i := live[k]
		row := streams[i][pos[i]]
		if pos[i]++; pos[i] == len(streams[i]) {
			live = append(live[:k], live[k+1:]...)
		}
		batched := rng.Intn(2) == 0 && (row.v == "" || bv == "" || row.v == bv)
		if !batched || rng.Intn(8) == 0 {
			flush()
		}
		if batched && row.v != "" {
			bv = row.v
		}
		switch {
		case row.site != nil && batched && row.site.Host == alexa.HostName(row.site.Site):
			b.AddSite(CanonicalSite{Site: row.site.Site, FirstRank: row.site.FirstRank, V4AS: row.site.V4AS, V6AS: row.site.V6AS})
		case row.site != nil:
			flush()
			db.PutSite(*row.site)
		case row.dns != nil && batched:
			b.AddDNS(*row.dns)
		case row.dns != nil:
			db.AddDNS(row.v, *row.dns)
		case row.sample != nil && batched:
			b.AddSample(row.sample.site, row.sample.fam, row.sample.s)
		case row.sample != nil:
			db.AddSample(row.v, row.sample.site, row.sample.fam, row.sample.s)
		default:
			db.AddPath(row.v, row.path.fam, row.path.dst, row.path.round, row.path.path)
		}
	}
	flush()
	return db
}

// TestSaveBytesIndependentOfInsertionOrder: a random database written
// in two random interleavings of the same rows, under equal
// reservations, saves to equal SaveBinary bytes.
func TestSaveBytesIndependentOfInsertionOrder(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		streams := canonStreams(rand.New(rand.NewSource(seed)))
		a := canonBuild(streams, rand.New(rand.NewSource(seed*31+1)))
		b := canonBuild(streams, rand.New(rand.NewSource(seed*31+2)))
		requireSameCSV(t, a, b)
		if ab, bb := snapshotBytes(t, a), snapshotBytes(t, b); !bytes.Equal(ab, bb) {
			t.Fatalf("seed %d: two interleavings of the same rows save %d and %d different bytes", seed, len(ab), len(bb))
		}
	}
}

// siteOf returns the site a stream's rows write; a path stream has
// none.
func siteOf(stream []canonRow) (alexa.SiteID, bool) {
	switch r := stream[0]; {
	case r.site != nil:
		return r.site.Site, true
	case r.dns != nil:
		return r.dns.Site, true
	case r.sample != nil:
		return r.sample.site, true
	}
	return 0, false
}

// TestMergedShardsSaveSourceBytes: a random database cut into random
// shard ranges, each range's rows written by a worker database of its
// own and the workers' sections merged into a fresh database in random
// order, saves to the source's bytes. MergeShard takes the ranges
// inside the reservation; the overflow ids on either side of a range,
// and the source's paths, which shards never carry, land through the
// same section decoder.
func TestMergedShardsSaveSourceBytes(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		streams := canonStreams(rng)
		src := canonBuild(streams, rng)
		res := src.res
		type rangeCut struct {
			lo, hi alexa.SiteID
			merge  bool
		}
		var cuts []rangeCut
		for _, r := range [][2]alexa.SiteID{{0, alexa.SiteID(res.main)}, {res.extBase, res.extBase + alexa.SiteID(res.ext)}} {
			for lo := r[0]; lo < r[1]; {
				hi := min(r[1], lo+1+alexa.SiteID(rng.Intn(24)))
				cuts = append(cuts, rangeCut{lo, hi, true})
				lo = hi
			}
		}
		cuts = append(cuts, rangeCut{alexa.SiteID(res.main), res.extBase, false}, rangeCut{res.extBase + alexa.SiteID(res.ext), snapAllSites, false})
		type piece struct {
			cut     rangeCut
			worker  *DB
			section byte
			v       Vantage
		}
		var pieces []piece
		for _, c := range cuts {
			var own [][]canonRow
			for _, st := range streams {
				if site, ok := siteOf(st); ok && c.lo <= site && site < c.hi {
					own = append(own, st)
				}
			}
			worker := canonBuild(own, rng)
			pieces = append(pieces, piece{c, worker, ShardSites, ""})
			for _, v := range worker.Vantages() {
				pieces = append(pieces, piece{c, worker, ShardDNS, v}, piece{c, worker, ShardSamples, v})
			}
		}
		for _, v := range src.Vantages() {
			pieces = append(pieces, piece{rangeCut{0, snapAllSites, false}, src, snapPaths, v})
		}
		rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
		merged := NewDB()
		merged.Reserve(res.main, res.extBase, res.ext)
		for _, p := range pieces {
			lo, hi := p.cut.lo, p.cut.hi
			var err error
			if p.cut.merge {
				err = merged.MergeShard(lo, hi, p.section, p.v, encodeSection(t, p.worker, p.section, p.v, lo, hi))
			} else {
				w := &wbuf{}
				switch p.section {
				case ShardSites:
					p.worker.appendShardSites(w, lo, hi)
				case ShardDNS:
					p.worker.appendDNS(w, p.v, lo, hi, 0, 0, nil)
				case ShardSamples:
					p.worker.appendSamples(w, p.v, lo, hi, 0)
				case snapPaths:
					p.worker.appendPaths(w, p.v, 0)
				}
				r := &rbuf{b: w.b}
				err = r.done(merged.decodeSection(r, p.section, p.v, lo, hi, 0))
			}
			if err != nil {
				t.Fatalf("seed %d: section %d of %q [%d,%d): %v", seed, p.section, p.v, lo, hi, err)
			}
		}
		requireSameCSV(t, merged, src)
		if mb, sb := snapshotBytes(t, merged), snapshotBytes(t, src); !bytes.Equal(mb, sb) {
			t.Fatalf("seed %d: the merged shards save %d bytes unequal to the source's %d", seed, len(mb), len(sb))
		}
	}
}
