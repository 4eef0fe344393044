package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"cellmatch/internal/alphabet"
	"cellmatch/internal/compose"
	"cellmatch/internal/dfa"
)

// Matcher persistence: compile once, ship the artifact. The format
// stores the alphabet reduction, the partitioned automata with their
// pattern-id maps, and the original dictionary, so a loaded matcher is
// bit-for-bit equivalent to the compiled one without re-running
// Aho-Corasick construction.
//
// Layout (little-endian):
//
//	magic "CMSAV7\x00"
//	options: caseFold u8, groups u32, maxStatesPerTile u32, version u32
//	engine:  disableKernel u8, maxTableBytes u64, interleaveK u32,
//	         maxShards i32, filterMode u8, stride u8, compressed u8
//	dictKind: regex u8 (0 = literal patterns, 1 = regular expressions)
//	reduction: map[256]u8, classes u32, width u32
//	system width u32, maxPatternLen u32
//	patterns: count u32; each: len u32, bytes
//	         (regex artifacts store the expression sources)
//	slots: count u32; each: blobLen u32, dfa blob,
//	       idCount u32, ids u32...
//
// Older artifacts still load: V6 (magic "CMSAV6\x00") lacks the
// compressed byte (loaded as CompressedAuto, so dictionaries whose
// dense table overflows the budget come back on the compressed rung —
// output-identical either way), V5 ("CMSAV5\x00") additionally lacks
// the stride byte (loaded as 0 = auto, so qualifying dictionaries come
// back on the stride-2 rung — output-identical either way), V4
// ("CMSAV4\x00") additionally lacks the dictKind byte (always a
// literal dictionary), V3 ("CMSAV3\x00") additionally lacks the
// filterMode field (loaded as FilterAuto, so qualifying dictionaries
// come back with the skip-scan front-end live — output-identical
// either way), V2 ("CMSAV2\x00") additionally lacks maxShards (loaded
// as 0, the default shard cap), and V1 ("CMSAV1\x00") lacks the whole
// engine block (zero-value EngineOptions).
var (
	savMagic   = []byte("CMSAV7\x00")
	savMagicV6 = []byte("CMSAV6\x00")
	savMagicV5 = []byte("CMSAV5\x00")
	savMagicV4 = []byte("CMSAV4\x00")
	savMagicV3 = []byte("CMSAV3\x00")
	savMagicV2 = []byte("CMSAV2\x00")
	savMagicV1 = []byte("CMSAV1\x00")
)

// Save writes the compiled matcher.
func (m *Matcher) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(savMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	put32 := func(v uint32) error { return binary.Write(bw, le, v) }
	cf := byte(0)
	if m.opts.CaseFold {
		cf = 1
	}
	if err := bw.WriteByte(cf); err != nil {
		return err
	}
	for _, v := range []uint32{
		uint32(m.opts.Groups), uint32(m.opts.MaxStatesPerTile), uint32(m.opts.Version),
	} {
		if err := put32(v); err != nil {
			return err
		}
	}
	dk := byte(0)
	if m.opts.Engine.DisableKernel {
		dk = 1
	}
	if err := bw.WriteByte(dk); err != nil {
		return err
	}
	mtb := m.opts.Engine.MaxTableBytes
	if mtb < 0 {
		mtb = 0
	}
	if err := binary.Write(bw, le, uint64(mtb)); err != nil {
		return err
	}
	ik := m.opts.Engine.InterleaveK
	if ik < 0 {
		ik = 0
	}
	if err := put32(uint32(ik)); err != nil {
		return err
	}
	// maxShards is signed: negative means "sharding disabled", which
	// must survive the round trip (clamped to -1).
	ms := m.opts.Engine.MaxShards
	if ms < 0 {
		ms = -1
	}
	if err := put32(uint32(int32(ms))); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(m.opts.Engine.Filter)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(m.opts.Engine.Stride)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(m.opts.Engine.Compressed)); err != nil {
		return err
	}
	rx := byte(0)
	if m.regex {
		rx = 1
	}
	if err := bw.WriteByte(rx); err != nil {
		return err
	}
	if _, err := bw.Write(m.sys.Red.Map[:]); err != nil {
		return err
	}
	for _, v := range []uint32{
		uint32(m.sys.Red.Classes), uint32(m.sys.Red.Width),
		uint32(m.sys.Width), uint32(m.sys.MaxPatternLen),
	} {
		if err := put32(v); err != nil {
			return err
		}
	}
	if err := put32(uint32(len(m.patterns))); err != nil {
		return err
	}
	for _, p := range m.patterns {
		if err := put32(uint32(len(p))); err != nil {
			return err
		}
		if _, err := bw.Write(p); err != nil {
			return err
		}
	}
	if err := put32(uint32(len(m.sys.Slots))); err != nil {
		return err
	}
	for i, d := range m.sys.Slots {
		blob, err := d.MarshalBinary()
		if err != nil {
			return err
		}
		if err := put32(uint32(len(blob))); err != nil {
			return err
		}
		if _, err := bw.Write(blob); err != nil {
			return err
		}
		ids := m.sys.SlotPatterns[i]
		if err := put32(uint32(len(ids))); err != nil {
			return err
		}
		for _, id := range ids {
			if err := put32(uint32(id)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reconstructs a matcher written by Save.
func Load(r io.Reader) (*Matcher, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	magic := make([]byte, len(savMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: not a cellmatch artifact")
	}
	v1 := bytes.Equal(magic, savMagicV1)
	v2 := bytes.Equal(magic, savMagicV2)
	v3 := bytes.Equal(magic, savMagicV3)
	v4 := bytes.Equal(magic, savMagicV4)
	v5 := bytes.Equal(magic, savMagicV5)
	v6 := bytes.Equal(magic, savMagicV6)
	if !v1 && !v2 && !v3 && !v4 && !v5 && !v6 && !bytes.Equal(magic, savMagic) {
		return nil, fmt.Errorf("core: not a cellmatch artifact")
	}
	get32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, le, &v)
		return v, err
	}
	cf, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	var opts Options
	opts.CaseFold = cf == 1
	var g, mst, ver uint32
	for _, p := range []*uint32{&g, &mst, &ver} {
		if *p, err = get32(); err != nil {
			return nil, err
		}
	}
	opts.Groups, opts.MaxStatesPerTile, opts.Version = int(g), int(mst), int(ver)
	if !v1 { // V1 predates the engine block: zero-value EngineOptions
		dk, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		opts.Engine.DisableKernel = dk == 1
		var mtb uint64
		if err := binary.Read(br, le, &mtb); err != nil {
			return nil, err
		}
		ik, err := get32()
		if err != nil {
			return nil, err
		}
		opts.Engine.MaxTableBytes, opts.Engine.InterleaveK = int(mtb), int(ik)
		if !v2 { // V2 predates the sharded tier: default shard cap
			ms, err := get32()
			if err != nil {
				return nil, err
			}
			opts.Engine.MaxShards = int(int32(ms))
			if !v3 { // V3 predates the skip-scan front-end: FilterAuto
				fm, err := br.ReadByte()
				if err != nil {
					return nil, err
				}
				if fm > byte(FilterOff) {
					return nil, fmt.Errorf("core: bad filter mode %d", fm)
				}
				opts.Engine.Filter = FilterMode(fm)
				if !v4 && !v5 { // V5 predates the stride-2 rung: auto
					st, err := br.ReadByte()
					if err != nil {
						return nil, err
					}
					if st > 2 {
						return nil, fmt.Errorf("core: bad stride %d", st)
					}
					opts.Engine.Stride = int(st)
					if !v6 { // V6 predates the compressed rung: auto
						cm, err := br.ReadByte()
						if err != nil {
							return nil, err
						}
						if cm > byte(CompressedOff) {
							return nil, fmt.Errorf("core: bad compressed mode %d", cm)
						}
						opts.Engine.Compressed = CompressedMode(cm)
					}
				}
			}
		}
	}
	regex := false
	if !v1 && !v2 && !v3 && !v4 { // V4 predates regex dictionaries
		rx, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if rx > 1 {
			return nil, fmt.Errorf("core: bad dictionary kind %d", rx)
		}
		regex = rx == 1
	}

	red := &alphabet.Reduction{}
	if _, err := io.ReadFull(br, red.Map[:]); err != nil {
		return nil, err
	}
	var classes, rwidth, width, maxLen uint32
	for _, p := range []*uint32{&classes, &rwidth, &width, &maxLen} {
		if *p, err = get32(); err != nil {
			return nil, err
		}
	}
	red.Classes, red.Width = int(classes), int(rwidth)
	if err := red.Validate(); err != nil {
		return nil, err
	}

	np, err := get32()
	if err != nil {
		return nil, err
	}
	const maxPatterns = 1 << 22
	if np == 0 || np > maxPatterns {
		return nil, fmt.Errorf("core: implausible pattern count %d", np)
	}
	patterns := make([][]byte, np)
	for i := range patterns {
		l, err := get32()
		if err != nil {
			return nil, err
		}
		if l == 0 || l > 1<<20 {
			return nil, fmt.Errorf("core: implausible pattern length %d", l)
		}
		patterns[i] = make([]byte, l)
		if _, err := io.ReadFull(br, patterns[i]); err != nil {
			return nil, err
		}
	}

	ns, err := get32()
	if err != nil {
		return nil, err
	}
	if ns == 0 || ns > 1<<16 {
		return nil, fmt.Errorf("core: implausible slot count %d", ns)
	}
	sys := &compose.System{
		Red:           red,
		Width:         int(width),
		MaxPatternLen: int(maxLen),
	}
	seen := make([]bool, np)
	for i := 0; i < int(ns); i++ {
		bl, err := get32()
		if err != nil {
			return nil, err
		}
		if bl == 0 || bl > 1<<30 {
			return nil, fmt.Errorf("core: implausible slot blob %d", bl)
		}
		blob := make([]byte, bl)
		if _, err := io.ReadFull(br, blob); err != nil {
			return nil, err
		}
		var d dfa.DFA
		if err := d.UnmarshalBinary(blob); err != nil {
			return nil, err
		}
		if d.Out == nil {
			return nil, fmt.Errorf("core: slot %d lacks output sets", i)
		}
		sys.Slots = append(sys.Slots, &d)
		ni, err := get32()
		if err != nil {
			return nil, err
		}
		if ni > np {
			return nil, fmt.Errorf("core: slot %d claims %d patterns", i, ni)
		}
		ids := make([]int, ni)
		for j := range ids {
			id, err := get32()
			if err != nil {
				return nil, err
			}
			if id >= np || seen[id] {
				return nil, fmt.Errorf("core: bad pattern id %d in slot %d", id, i)
			}
			seen[id] = true
			ids[j] = int(id)
		}
		sys.SlotPatterns = append(sys.SlotPatterns, ids)
	}
	for id, s := range seen {
		if !s {
			return nil, fmt.Errorf("core: pattern %d not assigned to any slot", id)
		}
	}
	groups := opts.Groups
	if groups == 0 {
		groups = 1
	}
	sys.Topology = compose.Mixed(groups, len(sys.Slots))
	minLen := 0
	if regex {
		// Stored patterns are expression sources; minLen is the shortest
		// possible match, re-derived (and the dictionary re-validated)
		// from the sources.
		exprs := make([]string, len(patterns))
		for i, p := range patterns {
			exprs[i] = string(p)
		}
		var err error
		if minLen, _, err = dfa.RegexDictionaryInfo(exprs); err != nil {
			return nil, err
		}
	} else {
		minLen = shortest(patterns)
	}
	return (&Matcher{sys: sys, opts: opts, patterns: patterns, minLen: minLen, regex: regex}).finish(nil, nil, nil)
}
