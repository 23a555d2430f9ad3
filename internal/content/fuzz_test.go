package content_test

import (
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/shard"
)

// FuzzLoadAndCompile feeds arbitrary documents to the content-pack
// loader, seeded with the four bundled shard scenario packs. A document
// either fails with errors or compiles to a pack; it never panics.
func FuzzLoadAndCompile(f *testing.F) {
	for _, src := range []string{
		shard.CascadePackXML,
		shard.MinglePackXML,
		shard.BorderWritePackXML,
		shard.ConflictPackXML,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, errs := content.LoadAndCompile(strings.NewReader(src))
		if len(errs) == 0 && c == nil {
			t.Fatal("LoadAndCompile returned neither a pack nor an error")
		}
	})
}
