package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
)

// Entry framing (v2): 4-byte magic, 8-byte LE payload length, sha256 of
// the payload, payload. The hash makes every disk read self-verifying —
// fingerprints address the *inputs* that produced an artifact, the
// stored hash attests the artifact bytes themselves survived the round
// trip — and the explicit length distinguishes a torn entry (shorter
// than declared: power loss mid-write) from bit corruption (full
// length, wrong hash), so the two failure modes are counted separately.
// Any other magic, including the v1 "CGA1" framing older processes
// wrote, is corrupt: the cache is disposable, so such an entry is
// dropped and its artifact recomputed.
var diskMagic = [4]byte{'C', 'G', 'A', '2'}

// entryHeaderLen is the v2 entry header: magic + length + sha256.
const entryHeaderLen = 4 + 8 + sha256.Size

// Entry decode failures, distinguished so the disk tier can count torn
// (truncated) entries separately from corrupt (wrong-byte) ones.
var (
	// errEntryTorn marks an entry shorter than its declared length — a
	// crashed write.
	errEntryTorn = errors.New("artifact: torn entry")
	// errEntryCorrupt marks an entry whose bytes fail verification — a
	// bad magic, extra bytes, or a payload that no longer matches its
	// stored hash.
	errEntryCorrupt = errors.New("artifact: corrupt entry")
)

// encodeEntry frames payload in the v2 entry format (magic, length,
// payload hash, payload) — the bytes decodeEntry verifies and accepts.
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, entryHeaderLen+len(payload))
	buf = append(buf, diskMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

// decodeEntry parses and verifies one framed v2 entry, returning the
// payload. The payload aliases raw. Failures are
// errEntryTorn (truncated relative to the declared length) or
// errEntryCorrupt (full length but wrong bytes) — a caller must treat
// either as "this entry does not exist", never trust the bytes.
func decodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < len(diskMagic) {
		return nil, errEntryTorn
	}
	if [4]byte(raw[:4]) != diskMagic {
		return nil, errEntryCorrupt
	}
	if len(raw) < entryHeaderLen {
		return nil, errEntryTorn
	}
	want := binary.LittleEndian.Uint64(raw[4:12])
	payload := raw[entryHeaderLen:]
	if uint64(len(payload)) < want {
		return nil, errEntryTorn
	}
	if uint64(len(payload)) > want || sha256.Sum256(payload) != [sha256.Size]byte(raw[12:entryHeaderLen]) {
		return nil, errEntryCorrupt
	}
	return payload, nil
}
