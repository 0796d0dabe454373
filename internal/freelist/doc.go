// Package freelist holds reusable working memory across solves and
// responses: a mutex-guarded free list of items of one type.
//
// It is used instead of a sync.Pool where an item is large and a warm path
// must find one. A sync.Pool drops its contents at garbage collection and
// misses whenever a goroutine asks from another P than the one that
// released, so on a path that allocates little (and so collects rarely) it
// accumulates one item per miss until the next collection. A List never
// misses while an item is idle: it holds at most as many items as were
// ever in use at once, each with the capacity of the largest job it has
// served, and keeps them across collections.
//
// Paper correspondence: none directly. It keeps the working memory of the
// sweep reused from solve to solve, the bounded-workspace regime that
// Kammer, Löffler & Silveira's space-efficient HSR assumes (PAPERS.md).
package freelist
