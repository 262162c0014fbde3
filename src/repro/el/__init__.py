"""Entity linking: the EL substrate the paper's supervision rules consume."""

from repro.el.linker import AliasTable, EntityLinker, link_mentions, normalize

__all__ = ["AliasTable", "EntityLinker", "link_mentions", "normalize"]
