package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
)

// Entry framing (v2): 4-byte magic, 8-byte LE payload length, sha256 of
// the payload, payload. The hash makes every read self-verifying —
// fingerprints address the *inputs* that produced an artifact, the
// stored hash attests the artifact bytes themselves survived the round
// trip — and the explicit length distinguishes a torn entry (shorter
// than declared: power loss mid-write, or a peer connection cut
// mid-body) from bit corruption (full length, wrong hash), so the two
// failure modes are counted separately.
//
// The same framing is both the on-disk entry format of the disk tier
// and the wire format of the remote tier's peer protocol
// (GET/PUT /v1/artifacts/{fingerprint}): a peer response is verified by
// exactly the rules a local disk read is — verify before trust, with no
// second format to keep in sync. Any other magic, including the v1
// "CGA1" framing older processes wrote, is corrupt: the cache is
// disposable, so such an entry is dropped and its artifact recomputed.
var diskMagic = [4]byte{'C', 'G', 'A', '2'}

// entryHeaderLen is the v2 entry header: magic + length + sha256.
const entryHeaderLen = 4 + 8 + sha256.Size

// MaxEntryWireBytes bounds one framed entry on the peer protocol, both
// serving and fetching: a corrupt or malicious peer must not be able to
// balloon a reader's memory with a fake length.
const MaxEntryWireBytes = 64 << 20

// Entry decode failures, distinguished so callers can count torn
// (truncated) entries separately from corrupt (wrong-byte) ones.
var (
	// ErrEntryTorn marks an entry shorter than its declared length — a
	// crashed write or a peer response cut short.
	ErrEntryTorn = errors.New("artifact: torn entry")
	// ErrEntryCorrupt marks an entry whose bytes fail verification — a
	// bad magic, extra bytes, or a payload that no longer matches its
	// stored hash.
	ErrEntryCorrupt = errors.New("artifact: corrupt entry")
)

// EncodeEntry frames payload in the v2 entry format (magic, length,
// payload hash, payload) — the bytes DecodeEntry verifies and accepts.
func EncodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, entryHeaderLen+len(payload))
	buf = append(buf, diskMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

// DecodeEntry parses and verifies one framed v2 entry, returning the
// payload. The payload aliases raw. Failures are
// ErrEntryTorn (truncated relative to the declared length) or
// ErrEntryCorrupt (full length but wrong bytes) — a caller must treat
// either as "this entry does not exist", never trust the bytes.
func DecodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < len(diskMagic) {
		return nil, ErrEntryTorn
	}
	if [4]byte(raw[:4]) != diskMagic {
		return nil, ErrEntryCorrupt
	}
	if len(raw) < entryHeaderLen {
		return nil, ErrEntryTorn
	}
	want := binary.LittleEndian.Uint64(raw[4:12])
	payload := raw[entryHeaderLen:]
	if uint64(len(payload)) < want {
		return nil, ErrEntryTorn
	}
	if uint64(len(payload)) > want || sha256.Sum256(payload) != [sha256.Size]byte(raw[12:entryHeaderLen]) {
		return nil, ErrEntryCorrupt
	}
	return payload, nil
}
