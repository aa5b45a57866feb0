package store

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// decodeOp is one write of a generated database: a reservation, a site
// row, a DNS row, a sample or a path snapshot.
type decodeOp struct {
	reserve [2]int // main ids, extended ids (at decodeExtBase)
	site    *SiteRow
	v       Vantage
	dns     *DNSRow
	id      alexa.SiteID // a sample's site
	fam     topo.Family
	sample  *Sample
	path    []int // a path snapshot to dst at round
	dst     int
	round   int
}

const decodeExtBase = alexa.SiteID(1 << 20)

// apply writes op to db through the row-by-row writers.
func (op decodeOp) apply(db *DB) {
	switch {
	case op.reserve != [2]int{}:
		db.Reserve(op.reserve[0], decodeExtBase, op.reserve[1])
	case op.site != nil:
		db.PutSite(*op.site)
	case op.dns != nil:
		db.AddDNS(op.v, *op.dns)
	case op.sample != nil:
		db.AddSample(op.v, op.id, op.fam, *op.sample)
	case op.path != nil:
		db.AddPath(op.v, op.fam, op.dst, op.round, op.path)
	}
}

// inRange reports whether a shard range of a database reserving res
// carries op's row: a dense id's site row, DNS row or sample.
func (op decodeOp) inRange(res reservation) bool {
	var id alexa.SiteID
	switch {
	case op.site != nil:
		id = op.site.Site
	case op.dns != nil:
		id = op.dns.Site
	case op.sample != nil:
		id = op.id
	default:
		return false
	}
	table, _ := res.locate(id)
	return table >= 0
}

// genDecodeOps generates a random database in three phases of rounds
// [0,8), [8,10) and [10,12), each writing only at its own rounds, so a
// checkpoint mark between phases can be continued by a segment. The
// ids are dense main (the range grows in the second phase, migrating
// overflow ids into it), dense extended and overflow; site rows carry
// canonical and explicit hosts (and a host reset to the canonical
// one); DNS histories flap (spilling past the two inline runs) and skip
// rounds (gaps), though few enough that a segment stays smaller than
// its base; samples cover both families, over dates shared by a
// round, one in another zone and one reused from an earlier round; a
// vantage appears in the second phase.
func genDecodeOps(seed int64) [3][]decodeOp {
	rng := rand.New(rand.NewSource(seed))
	main0 := 120 + rng.Intn(60)
	main1 := main0 + 24 + rng.Intn(24)
	const ext = 90
	over := []alexa.SiteID{alexa.SiteID(main0 + 3), alexa.SiteID(main1 + 5), 900_001, decodeExtBase + ext + 7, 5_000_000}
	var ids [3][]alexa.SiteID
	for id := alexa.SiteID(0); id < alexa.SiteID(main1); id++ {
		if rng.Intn(4) != 0 && id != over[0] {
			p := 0
			if id >= alexa.SiteID(main0) {
				p = 1 + rng.Intn(2)
			} else if rng.Intn(5) == 0 {
				p = 1 + rng.Intn(2)
			}
			ids[p] = append(ids[p], id)
		}
	}
	for i := alexa.SiteID(0); i < ext; i++ {
		if rng.Intn(3) == 0 {
			p := rng.Intn(3)
			ids[p] = append(ids[p], decodeExtBase+i)
		}
	}
	for i, id := range over { // main0+3 first: the growth migrates it
		ids[i%3] = append(ids[i%3], id)
	}
	host := func(id alexa.SiteID) string {
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprintf("custom-%d.example", rng.Intn(4))
		default:
			return alexa.HostName(id)
		}
	}
	base := time.Date(2011, 3, 2, 0, 0, 0, 0, time.UTC)
	zone := time.FixedZone("UTC+5", 5*3600)
	var ops [3][]decodeOp
	var tracked []alexa.SiteID
	state := map[Vantage]map[alexa.SiteID]DNSRow{}
	for p, rounds := range [3][2]int{{0, 8}, {8, 10}, {10, 12}} {
		add := func(op decodeOp) { ops[p] = append(ops[p], op) }
		switch p {
		case 0:
			add(decodeOp{reserve: [2]int{main0, ext}})
		case 1:
			add(decodeOp{reserve: [2]int{main1, ext}})
		}
		tracked = append(tracked, ids[p]...)
		for _, id := range ids[p] {
			add(decodeOp{site: &SiteRow{Site: id, Host: host(id), FirstRank: rng.Intn(1000), V4AS: rng.Intn(50) - 1, V6AS: rng.Intn(50) - 1}})
		}
		for k := 0; k < len(tracked)/8; k++ { // rewritten rows, a host reset among them
			id := tracked[rng.Intn(len(tracked))]
			add(decodeOp{site: &SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: rng.Intn(1000), V4AS: 3, V6AS: -1}})
		}
		vantages := []Vantage{"penn"}
		if p > 0 {
			vantages = append(vantages, "tokyo")
		}
		for r := rounds[0]; r < rounds[1]; r++ {
			date := base.AddDate(0, 0, 7*r)
			for _, v := range vantages {
				if state[v] == nil {
					state[v] = map[alexa.SiteID]DNSRow{}
				}
				for _, id := range tracked {
					if rng.Intn(9) == 0 {
						continue // a skipped round: a gap in the history
					}
					row, ok := state[v][id]
					if !ok || rng.Intn(6) == 0 || (id%5 == 0 && rng.Intn(2) == 0) {
						row = DNSRow{HasA: rng.Intn(8) != 0, HasAAAA: rng.Intn(3) == 0, Identical: rng.Intn(2) == 0}
					}
					row.Site, row.Round = id, r
					state[v][id] = row
					add(decodeOp{v: v, dns: &row})
					if row.HasAAAA && rng.Intn(2) == 0 {
						d := date
						switch rng.Intn(10) {
						case 0:
							d = date.In(zone)
						case 1:
							d = base
						}
						for _, fam := range famBoth {
							add(decodeOp{v: v, id: id, fam: fam, sample: &Sample{
								Round: r, Date: d, PageBytes: 1000 + rng.Intn(5000), Downloads: 1 + rng.Intn(20),
								MeanSpeed: rng.Float64() * 500, CIOK: rng.Intn(3) != 0,
							}})
						}
					}
				}
				if rng.Intn(2) == 0 {
					add(decodeOp{v: v, fam: famBoth[rng.Intn(2)], dst: rng.Intn(4), round: r, path: []int{1, 2 + rng.Intn(3), 9}})
				}
			}
		}
	}
	return ops
}

// requireDecodedEqual fails unless got holds exactly want's state: its
// snapshot bytes, mark state (row, date and path counts, mark rounds,
// reservation), every table stripe's row count and round watermarks,
// site dirty bits and host exceptions, Counts and DNSStats.
func requireDecodedEqual(t *testing.T, name string, want, got *DB) {
	t.Helper()
	if !bytes.Equal(snapshotBytes(t, want), snapshotBytes(t, got)) {
		t.Fatalf("%s: SaveBinary bytes differ", name)
	}
	if w, g := want.state(false), got.state(false); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: state %+v, want %+v", name, g, w)
	}
	gotTables := got.tables()
	for v, w := range want.tables() {
		g := gotTables[v]
		for i := range w.dns {
			if wd, gd := [3]int{w.dns[i].rows, int(w.dns[i].lo), int(w.dns[i].hi)}, [3]int{g.dns[i].rows, int(g.dns[i].lo), int(g.dns[i].hi)}; wd != gd {
				t.Fatalf("%s: %s DNS stripe %d rows and watermarks %v, want %v", name, v, i, gd, wd)
			}
			if ws, gs := [3]int{w.samples[i].rows, int(w.samples[i].lo), int(w.samples[i].hi)}, [3]int{g.samples[i].rows, int(g.samples[i].lo), int(g.samples[i].hi)}; ws != gs {
				t.Fatalf("%s: %s sample stripe %d rows and watermarks %v, want %v", name, v, i, gs, ws)
			}
		}
		if w.pathLo != g.pathLo || w.pathHi != g.pathHi {
			t.Fatalf("%s: %s path watermarks %d, %d, want %d, %d", name, v, g.pathLo, g.pathHi, w.pathLo, w.pathHi)
		}
	}
	for i := range want.sites {
		w, g := &want.sites[i], &got.sites[i]
		if !slices.Equal(w.main.dirty, g.main.dirty) || !slices.Equal(w.ext.dirty, g.ext.dirty) {
			t.Fatalf("%s: stripe %d site dirty bits differ", name, i)
		}
		if !maps.Equal(w.hostOver, g.hostOver) {
			t.Fatalf("%s: stripe %d host exceptions %v, want %v", name, i, g.hostOver, w.hostOver)
		}
	}
	wa, wb, wc, wd := want.Counts()
	ga, gb, gc, gd := got.Counts()
	if wa != ga || wb != gb || wc != gc || wd != gd {
		t.Fatalf("%s: Counts %d %d %d %d, want %d %d %d %d", name, ga, gb, gc, gd, wa, wb, wc, wd)
	}
	for _, v := range want.Vantages() {
		wr, wn, ws := want.DNSStats(v)
		gr, gn, gs := got.DNSStats(v)
		if wr != gr || wn != gn || ws != gs {
			t.Fatalf("%s: %s DNSStats %d rows, %d runs, %d sites; want %d, %d, %d", name, v, gr, gn, gs, wr, wn, ws)
		}
	}
}

// requireDecodeCoverage fails unless db holds every kind of row
// genDecodeOps promises: host exceptions, overflow and dense extended
// site rows, spilled and gapped DNS histories, and both sample
// families.
func requireDecodeCoverage(t *testing.T, db *DB) {
	t.Helper()
	var hosts, over, ext, spilled, gaps int
	for i := range db.sites {
		hosts += len(db.sites[i].hostOver)
		over += len(db.sites[i].over)
		ext += len(slices.DeleteFunc(slices.Clone(db.sites[i].ext.present), func(p bool) bool { return !p }))
	}
	for _, tb := range db.tables() {
		for i := range tb.dns {
			spilled += len(tb.dns[i].spill)
		}
	}
	ends := map[alexa.SiteID]int{}
	db.ForEachDNSRun("penn", func(row DNSRow, n int) {
		if end, ok := ends[row.Site]; ok && row.Round > end {
			gaps++
		}
		ends[row.Site] = row.Round + n
	})
	fams := map[topo.Family]bool{}
	db.ForEachSeries("penn", func(_ alexa.SiteID, fam topo.Family, _ []Sample) { fams[fam] = true })
	if hosts == 0 || over == 0 || ext == 0 || spilled == 0 || gaps == 0 || len(fams) != 2 {
		t.Fatalf("generated database lacks a case: %d host exceptions, %d overflow rows, %d extended rows, %d spilled and %d gapped histories, families %v",
			hosts, over, ext, spilled, gaps, fams)
	}
}

// mergeChunks cuts each dense range of res at bounds inside 16-id slot
// groups, so every chunk starts and ends mid-group.
func mergeChunks(rng *rand.Rand, res reservation, parts int) [][2]alexa.SiteID {
	var out [][2]alexa.SiteID
	for _, r := range [][2]alexa.SiteID{{0, alexa.SiteID(res.main)}, {res.extBase, res.extBase + alexa.SiteID(res.ext)}} {
		lo := r[0]
		for k := 1; k < parts; k++ {
			hi := r[0] + (r[1]-r[0])*alexa.SiteID(k)/alexa.SiteID(parts)
			if hi&(shards-1) == 0 {
				hi += 1 + alexa.SiteID(rng.Intn(shards-1))
			}
			out = append(out, [2]alexa.SiteID{lo, hi})
			lo = hi
		}
		out = append(out, [2]alexa.SiteID{lo, r[1]})
	}
	return out
}

// mergeSections merges every section of src over [lo, hi) into dst, the
// sections in a random order.
func mergeSections(t testing.TB, rng *rand.Rand, src, dst *DB, lo, hi alexa.SiteID) {
	type sec struct {
		section byte
		v       Vantage
	}
	secs := []sec{{ShardSites, ""}}
	for _, v := range src.Vantages() {
		secs = append(secs, sec{ShardDNS, v}, sec{ShardSamples, v})
	}
	rng.Shuffle(len(secs), func(i, j int) { secs[i], secs[j] = secs[j], secs[i] })
	for _, s := range secs {
		payload, _, err := src.AppendShardSection(nil, s.section, s.v, lo, hi)
		if err != nil {
			t.Errorf("encode section %d %q [%d,%d): %v", s.section, s.v, lo, hi, err)
			return
		}
		if err := dst.MergeShard(lo, hi, s.section, s.v, payload); err != nil {
			t.Errorf("merge section %d %q [%d,%d): %v", s.section, s.v, lo, hi, err)
			return
		}
	}
}

// TestDecodeMatchesRowByRow builds random databases through the
// row-by-row writers (PutSite, AddDNS, AddSample, AddPath) and rebuilds
// each three ways through the section decoders: MergeShard of chunked
// ranges, sent out of order, whose bounds fall inside a slot group (the
// overflow rows and paths, which no shard range carries, written row
// by row); Load of SaveBinary's compressed snapshot; and a checkpoint
// chain of a base and two segments. Each rebuilt database must hold
// exactly the source's state (requireDecodedEqual), and re-saving it
// must give the source's bytes.
func TestDecodeMatchesRowByRow(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			phases := genDecodeOps(seed)
			src := NewDB()
			for _, ops := range phases {
				for _, op := range ops {
					op.apply(src)
				}
			}
			requireDecodeCoverage(t, src)

			rng := rand.New(rand.NewSource(seed))
			merged := NewDB()
			merged.Reserve(src.res.main, src.res.extBase, src.res.ext)
			chunks := mergeChunks(rng, src.res, 3)
			rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
			for _, c := range chunks {
				mergeSections(t, rng, src, merged, c[0], c[1])
			}
			for _, ops := range phases {
				for _, op := range ops {
					if op.reserve == [2]int{} && !op.inRange(src.res) {
						op.apply(merged)
					}
				}
			}
			requireDecodedEqual(t, "MergeShard", src, merged)

			path := filepath.Join(t.TempDir(), "db")
			if err := src.SaveBinary(path+BinaryExt, BinaryOptions{Compress: true}); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			requireDecodedEqual(t, "Load", src, loaded)

			// The chain: a live database checkpointed after each phase.
			dir := t.TempDir()
			b := NewCheckpointBackend(dir)
			live := NewDB()
			for p, ops := range phases {
				for _, op := range ops {
					op.apply(live)
				}
				if err := commit(b, live, p); err != nil {
					t.Fatal(err)
				}
				if p > 0 && newestIsBase(t, b) {
					t.Fatalf("checkpoint %d is a base, not segment %d of a chain", p, p)
				}
			}
			chained, _ := loadNewest(t, dir)
			requireDecodedEqual(t, "chain", src, chained)
		})
	}
}

// TestDecodeExplicitCanonicalHostIsDerived: a sites payload naming a
// dense site's canonical host explicitly lands the row derived, as
// PutSite lands it, also over a row that held a host exception.
func TestDecodeExplicitCanonicalHostIsDerived(t *testing.T) {
	const id = alexa.SiteID(37)
	name := alexa.HostName(id)
	var w wbuf
	w.uvarint(1)                          // one row:
	w.uvarint(uint64(id + 1))             // site 37 (against lo-1),
	for _, x := range []uint64{5, 8, 0} { // first rank 5, AS 7, no AAAA origin,
		w.uvarint(x)
	}
	w.uvarint(uint64(len(name))) // and the canonical host spelled out
	w.bytes([]byte(name))

	want := NewDB()
	want.Reserve(64, 0, 0)
	want.PutSite(SiteRow{Site: id, Host: "custom.example", FirstRank: 1, V4AS: 1, V6AS: 1})
	want.PutSite(SiteRow{Site: id, Host: name, FirstRank: 5, V4AS: 7, V6AS: -1})
	got := NewDB()
	got.Reserve(64, 0, 0)
	got.PutSite(SiteRow{Site: id, Host: "custom.example", FirstRank: 1, V4AS: 1, V6AS: 1})
	if err := got.MergeShard(0, 64, ShardSites, "", w.b); err != nil {
		t.Fatal(err)
	}
	requireDecodedEqual(t, "explicit canonical host", want, got)
	if row, ok := got.Site(id); !ok || row.Host != name {
		t.Fatalf("site %d: %+v, want host %s", id, row, name)
	}
}

// TestDecodeSitesAllocs: landing a sites section of derived hosts
// formats no host name and allocates nothing per row, so MergeShard
// of 4,096 rows allocates a small constant number of times beyond the
// database it merges into.
func TestDecodeSitesAllocs(t *testing.T) {
	const n = 4096
	src := NewDB()
	src.Reserve(n, 0, 0)
	for id := alexa.SiteID(0); id < n; id++ {
		src.PutSite(SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: int(id) + 1, V4AS: int(id % 300), V6AS: -1})
	}
	payload, _, err := src.AppendShardSection(nil, ShardSites, "", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *DB {
		db := NewDB()
		db.Reserve(n, 0, 0)
		return db
	}
	empty := testing.AllocsPerRun(5, func() { fresh() })
	merge := testing.AllocsPerRun(5, func() {
		if err := fresh().MergeShard(0, n, ShardSites, "", payload); err != nil {
			t.Fatal(err)
		}
	})
	if extra := merge - empty; extra > 8 {
		t.Fatalf("MergeShard of %d derived-host rows allocates %.0f times beyond the empty reservation's %.0f, want at most 8", n, extra, empty)
	}
}

// TestConcurrentMergeShard: four goroutines merge disjoint ranges of
// every section into one database, which must equal a serial merge of
// the same ranges byte for byte. The payloads are encoded beforehand
// and each goroutine lands its sites sections first, then DNS, then
// samples, so nothing but the decoders' own stripe locks orders two
// goroutines' landings of one section kind; every range spans all lock
// stripes, so under -race a decoder that writes a stripe without its
// lock fails.
func TestConcurrentMergeShard(t *testing.T) {
	src := NewDB()
	for _, ops := range genDecodeOps(7) {
		for _, op := range ops {
			op.apply(src)
		}
	}
	type frame struct {
		lo, hi  alexa.SiteID
		section byte
		v       Vantage
		payload []byte
	}
	var work [4][]frame
	for k, c := range mergeChunks(rand.New(rand.NewSource(7)), src.res, 4) {
		for _, section := range []byte{ShardSites, ShardDNS, ShardSamples} {
			vantages := src.Vantages()
			if section == ShardSites {
				vantages = []Vantage{""}
			}
			for _, v := range vantages {
				payload, _, err := src.AppendShardSection(nil, section, v, c[0], c[1])
				if err != nil {
					t.Fatal(err)
				}
				work[k%4] = append(work[k%4], frame{c[0], c[1], section, v, payload})
			}
		}
	}
	merge := func(db *DB, frames []frame) {
		for _, f := range frames {
			if err := db.MergeShard(f.lo, f.hi, f.section, f.v, f.payload); err != nil {
				t.Errorf("merge section %d %q [%d,%d): %v", f.section, f.v, f.lo, f.hi, err)
			}
		}
	}
	serial := NewDB()
	serial.Reserve(src.res.main, src.res.extBase, src.res.ext)
	for _, frames := range work {
		merge(serial, frames)
	}
	conc := NewDB()
	conc.Reserve(src.res.main, src.res.extBase, src.res.ext)
	var wg sync.WaitGroup
	for _, frames := range work {
		wg.Add(1)
		go func(frames []frame) {
			defer wg.Done()
			merge(conc, frames)
		}(frames)
	}
	wg.Wait()
	if !bytes.Equal(snapshotBytes(t, serial), snapshotBytes(t, conc)) {
		t.Fatal("concurrent merges differ from the serial merge")
	}
}
